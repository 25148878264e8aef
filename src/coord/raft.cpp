#include "coord/raft.hpp"

#include <algorithm>

namespace riot::coord {

namespace {
constexpr sim::SimTime kHeartbeatInterval = sim::millis(50);
constexpr sim::SimTime kElectionTimeoutMin = sim::millis(150);
constexpr sim::SimTime kElectionTimeoutMax = sim::millis(300);
constexpr std::size_t kMaxEntriesPerAppend = 64;
}  // namespace

std::string_view to_string(RaftRole r) {
  switch (r) {
    case RaftRole::kFollower:
      return "follower";
    case RaftRole::kCandidate:
      return "candidate";
    case RaftRole::kLeader:
      return "leader";
  }
  return "?";
}

RaftPeer::RaftPeer(net::Network& network, RaftStorage& storage)
    : net::Node(network),
      storage_(storage),
      rng_(network.simulation().rng().split("raft" + to_string(id()))),
      elections_total_(network.metrics()
                           .counter_family("riot_raft_elections_total",
                                           "elections started")
                           .with({})),
      leader_changes_total_(network.metrics()
                                .counter_family("riot_raft_leader_changes_total",
                                                "leadership acquisitions")
                                .with({})) {
  set_component("raft");
  on<RequestVote>([this](net::NodeId from, const RequestVote& rv) {
    handle_request_vote(from, rv);
  });
  on<RequestVoteReply>([this](net::NodeId from, const RequestVoteReply& r) {
    handle_vote_reply(from, r);
  });
  on<AppendEntries>([this](net::NodeId from, const AppendEntries& ae) {
    handle_append(from, ae);
  });
  on<AppendEntriesReply>(
      [this](net::NodeId from, const AppendEntriesReply& r) {
        handle_append_reply(from, r);
      });
  on<InstallSnapshot>([this](net::NodeId from, const InstallSnapshot& is) {
    handle_install_snapshot(from, is);
  });
  on<InstallSnapshotReply>(
      [this](net::NodeId from, const InstallSnapshotReply& reply) {
        if (reply.term > storage_.current_term) {
          become_follower(reply.term);
          return;
        }
        if (role_ != RaftRole::kLeader) return;
        match_index_[from] = std::max(match_index_[from], reply.match_index);
        next_index_[from] = match_index_[from] + 1;
        advance_commit();
        if (next_index_[from] <= storage_.last_index()) replicate_to(from);
      });
}

void RaftPeer::set_peers(std::vector<net::NodeId> peers) {
  peers_ = std::move(peers);
}

void RaftPeer::on_start() {
  restore_from_snapshot();
  reset_election_timer();
}

void RaftPeer::restore_from_snapshot() {
  if (storage_.snapshot_index > 0 && last_applied_ < storage_.snapshot_index) {
    if (restore_cb_) {
      restore_cb_(storage_.snapshot_index, storage_.snapshot_state);
    }
    last_applied_ = storage_.snapshot_index;
    commit_index_ = std::max(commit_index_, storage_.snapshot_index);
  }
}

void RaftPeer::on_crash() {
  role_ = RaftRole::kFollower;
  election_span_ = {};
  known_leader_ = net::kInvalidNode;
  commit_index_ = 0;
  last_applied_ = 0;
  votes_from_.clear();
  heartbeat_timer_ = sim::kInvalidEventId;
  next_index_.clear();
  match_index_.clear();
}

void RaftPeer::on_recover() {
  // Persistent state (term, votedFor, log, snapshot) is intact in
  // storage_; the state machine restarts from the snapshot (if any) and
  // is rebuilt as the new leader advances our commit index.
  restore_from_snapshot();
  reset_election_timer();
}

std::optional<std::uint64_t> RaftPeer::propose(Command command) {
  if (role_ != RaftRole::kLeader || !alive()) return std::nullopt;
  storage_.log.push_back(LogEntry{storage_.current_term, std::move(command)});
  const std::uint64_t index = storage_.last_index();
  match_index_[id()] = index;
  for (const net::NodeId peer : peers_) {
    if (peer != id()) replicate_to(peer);
  }
  // Single-node group commits immediately.
  advance_commit();
  return index;
}

void RaftPeer::reset_election_timer() {
  const std::uint64_t generation = ++election_generation_;
  const auto span = kElectionTimeoutMax - kElectionTimeoutMin;
  const sim::SimTime timeout =
      kElectionTimeoutMin +
      sim::nanos(static_cast<std::int64_t>(
          rng_.uniform01() * static_cast<double>(span.count())));
  after(timeout, [this, generation] {
    if (generation != election_generation_) return;  // timer was reset
    if (role_ != RaftRole::kLeader) become_candidate();
  });
}

void RaftPeer::become_follower(std::uint64_t term) {
  if (election_span_.valid()) {
    tracer().annotate(election_span_, "outcome", "lost");
    tracer().end(election_span_);
    election_span_ = {};
  }
  if (term > storage_.current_term) {
    storage_.current_term = term;
    storage_.voted_for = net::kInvalidNode;
  }
  if (role_ == RaftRole::kLeader && heartbeat_timer_ != sim::kInvalidEventId) {
    cancel(heartbeat_timer_);
    heartbeat_timer_ = sim::kInvalidEventId;
  }
  role_ = RaftRole::kFollower;
  reset_election_timer();
}

void RaftPeer::become_candidate() {
  role_ = RaftRole::kCandidate;
  ++storage_.current_term;
  storage_.voted_for = id();
  votes_from_.clear();
  votes_from_.insert(id());  // own vote
  if (!election_span_.valid()) {
    // Parent on the lost leader's incident: the election is an effect of
    // that failure, not ambient behaviour.
    election_span_ = tracer().start_caused_by(known_leader_.value, "raft",
                                              "election", id().value);
    elections_total_.increment();
  }
  tracer().annotate(election_span_, "term",
                    std::to_string(storage_.current_term));
  network()
      .trace()
      .event("raft", "candidate")
      .debug()
      .node(id().value)
      .kv("term", storage_.current_term)
      .span(election_span_);
  reset_election_timer();
  const RequestVote rv{storage_.current_term, storage_.last_index(),
                       storage_.last_term()};
  {
    // Vote requests (and their replies) join the election's trace.
    obs::Tracer::Scope scope(tracer(), election_span_);
    for (const net::NodeId peer : peers_) {
      if (peer != id()) send(peer, rv);
    }
  }
  if (peers_.size() == 1) become_leader();
}

void RaftPeer::become_leader() {
  role_ = RaftRole::kLeader;
  note_leader(id());
  leader_changes_total_.increment();
  const obs::SpanContext won =
      election_span_.valid()
          ? tracer().start_span(election_span_, "raft", "leader", id().value)
          : tracer().start_auto("raft", "leader", id().value);
  tracer().annotate(won, "term", std::to_string(storage_.current_term));
  network()
      .trace()
      .event("raft", "leader")
      .node(id().value)
      .kv("term", storage_.current_term)
      .span(won);
  next_index_.clear();
  match_index_.clear();
  for (const net::NodeId peer : peers_) {
    next_index_[peer] = storage_.last_index() + 1;
    match_index_[peer] = 0;
  }
  match_index_[id()] = storage_.last_index();
  {
    obs::Tracer::Scope scope(tracer(), won);
    broadcast_heartbeats();
  }
  tracer().end(won);
  if (election_span_.valid()) {
    tracer().end(election_span_);
    election_span_ = {};
  }
  heartbeat_timer_ =
      every(kHeartbeatInterval, [this] { broadcast_heartbeats(); });
}

void RaftPeer::broadcast_heartbeats() {
  for (const net::NodeId peer : peers_) {
    if (peer != id()) replicate_to(peer);
  }
}

void RaftPeer::replicate_to(net::NodeId peer) {
  const std::uint64_t next = next_index_[peer];
  if (next <= storage_.snapshot_index) {
    // The follower is behind our compaction horizon: ship the snapshot.
    send(peer, InstallSnapshot{storage_.current_term,
                               storage_.snapshot_index,
                               storage_.snapshot_term,
                               storage_.snapshot_state});
    return;
  }
  AppendEntries ae;
  ae.term = storage_.current_term;
  ae.prev_log_index = next - 1;
  ae.prev_log_term = storage_.term_at(next - 1);
  ae.leader_commit = commit_index_;
  const std::uint64_t last = storage_.last_index();
  for (std::uint64_t i = next;
       i <= last && ae.entries.size() < kMaxEntriesPerAppend; ++i) {
    ae.entries.push_back(storage_.entry(i));
  }
  send(peer, std::move(ae));
}

void RaftPeer::handle_request_vote(net::NodeId from, const RequestVote& rv) {
  if (rv.term > storage_.current_term) become_follower(rv.term);
  bool granted = false;
  if (rv.term == storage_.current_term &&
      (storage_.voted_for == net::kInvalidNode ||
       storage_.voted_for == from)) {
    // Up-to-date check (Raft §5.4.1).
    const bool candidate_up_to_date =
        rv.last_log_term > storage_.last_term() ||
        (rv.last_log_term == storage_.last_term() &&
         rv.last_log_index >= storage_.last_index());
    if (candidate_up_to_date) {
      granted = true;
      storage_.voted_for = from;
      reset_election_timer();
    }
  }
  send(from, RequestVoteReply{storage_.current_term, granted});
}

void RaftPeer::handle_vote_reply(net::NodeId from,
                                 const RequestVoteReply& reply) {
  if (reply.term > storage_.current_term) {
    become_follower(reply.term);
    return;
  }
  if (role_ != RaftRole::kCandidate || reply.term != storage_.current_term ||
      !reply.granted) {
    return;
  }
  votes_from_.insert(from);
  if (votes_from_.size() >= majority()) become_leader();
}

void RaftPeer::handle_append(net::NodeId from, const AppendEntries& ae) {
  if (ae.term > storage_.current_term) become_follower(ae.term);
  if (ae.term < storage_.current_term) {
    send(from, AppendEntriesReply{storage_.current_term, false, 0,
                                  storage_.last_index() + 1});
    return;
  }
  // Valid leader for this term.
  if (role_ != RaftRole::kFollower) become_follower(ae.term);
  note_leader(from);
  reset_election_timer();

  // Entries entirely below our snapshot are already covered; tell the
  // leader where we really are.
  if (ae.prev_log_index < storage_.snapshot_index) {
    send(from, AppendEntriesReply{storage_.current_term, true,
                                  storage_.snapshot_index, 0});
    return;
  }
  // Consistency check.
  if (ae.prev_log_index > storage_.last_index() ||
      storage_.term_at(ae.prev_log_index) != ae.prev_log_term) {
    send(from, AppendEntriesReply{storage_.current_term, false, 0,
                                  std::min(storage_.last_index() + 1,
                                           ae.prev_log_index)});
    return;
  }
  // Append / overwrite conflicting suffix.
  std::uint64_t index = ae.prev_log_index;
  for (const LogEntry& entry : ae.entries) {
    ++index;
    if (index <= storage_.last_index()) {
      if (storage_.term_at(index) != entry.term) {
        storage_.log.resize(index - storage_.snapshot_index - 1);
        storage_.log.push_back(entry);
      }
    } else {
      storage_.log.push_back(entry);
    }
  }
  const std::uint64_t match = ae.prev_log_index + ae.entries.size();
  if (ae.leader_commit > commit_index_) {
    // Clamp to the last entry *this append* confirmed (Raft §5.3's "index
    // of last new entry"), never to our own last_index(): the log may
    // still hold an unconfirmed — possibly conflicting — suffix from a
    // deposed leader beyond this append's window, and committing it would
    // apply commands the current leader never replicated.
    commit_index_ =
        std::max(commit_index_, std::min(ae.leader_commit, match));
    apply_committed();
  }
  send(from,
       AppendEntriesReply{storage_.current_term, true, match, 0});
}

void RaftPeer::handle_append_reply(net::NodeId from,
                                   const AppendEntriesReply& reply) {
  if (reply.term > storage_.current_term) {
    become_follower(reply.term);
    return;
  }
  if (role_ != RaftRole::kLeader || reply.term != storage_.current_term) {
    return;
  }
  if (reply.success) {
    match_index_[from] = std::max(match_index_[from], reply.match_index);
    next_index_[from] = match_index_[from] + 1;
    advance_commit();
    if (next_index_[from] <= storage_.last_index()) replicate_to(from);
  } else {
    next_index_[from] =
        std::max<std::uint64_t>(1, std::min(next_index_[from] - 1,
                                            reply.hint_index));
    replicate_to(from);
  }
}

void RaftPeer::advance_commit() {
  // Find the highest index replicated on a majority with an entry from the
  // current term (Raft §5.4.2).
  for (std::uint64_t n = storage_.last_index(); n > commit_index_; --n) {
    if (storage_.term_at(n) != storage_.current_term) break;
    std::size_t count = 0;
    for (const net::NodeId peer : peers_) {
      auto it = match_index_.find(peer);
      if (it != match_index_.end() && it->second >= n) ++count;
    }
    if (count >= majority()) {
      commit_index_ = n;
      apply_committed();
      break;
    }
  }
}

void RaftPeer::apply_committed() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    if (apply_cb_) {
      apply_cb_(last_applied_, storage_.entry(last_applied_).command);
    }
  }
}

bool RaftPeer::compact(std::uint64_t up_to_index,
                       std::string state_machine_image) {
  if (up_to_index <= storage_.snapshot_index ||
      up_to_index > last_applied_) {
    return false;
  }
  const std::uint64_t keep_from = up_to_index + 1;
  std::vector<LogEntry> retained;
  for (std::uint64_t i = keep_from; i <= storage_.last_index(); ++i) {
    retained.push_back(storage_.entry(i));
  }
  storage_.snapshot_term = storage_.term_at(up_to_index);
  storage_.snapshot_index = up_to_index;
  storage_.snapshot_state = std::move(state_machine_image);
  storage_.log = std::move(retained);
  network()
      .trace()
      .event("raft", "compact")
      .node(id().value)
      .kv("through", up_to_index);
  return true;
}

void RaftPeer::handle_install_snapshot(net::NodeId from,
                                       const InstallSnapshot& is) {
  if (is.term > storage_.current_term) become_follower(is.term);
  if (is.term < storage_.current_term) {
    send(from, InstallSnapshotReply{storage_.current_term, 0});
    return;
  }
  note_leader(from);
  reset_election_timer();
  if (is.snapshot_index <= storage_.snapshot_index) {
    // Stale snapshot; we already cover it.
    send(from,
         InstallSnapshotReply{storage_.current_term, storage_.last_index()});
    return;
  }
  if (is.snapshot_index < storage_.last_index() &&
      storage_.term_at(is.snapshot_index) == is.snapshot_term) {
    // Retain the suffix that extends past the snapshot.
    std::vector<LogEntry> retained;
    for (std::uint64_t i = is.snapshot_index + 1;
         i <= storage_.last_index(); ++i) {
      retained.push_back(storage_.entry(i));
    }
    storage_.log = std::move(retained);
  } else {
    storage_.log.clear();
  }
  storage_.snapshot_index = is.snapshot_index;
  storage_.snapshot_term = is.snapshot_term;
  storage_.snapshot_state = is.state;
  if (restore_cb_) restore_cb_(is.snapshot_index, is.state);
  last_applied_ = is.snapshot_index;
  commit_index_ = std::max(commit_index_, is.snapshot_index);
  apply_committed();
  send(from,
       InstallSnapshotReply{storage_.current_term, storage_.last_index()});
}

void RaftPeer::note_leader(net::NodeId leader) {
  if (known_leader_ == leader) return;
  known_leader_ = leader;
  if (leader_cb_) leader_cb_(leader);
}

}  // namespace riot::coord
