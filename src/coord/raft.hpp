// Raft consensus.
//
// Decentralized coordination (Section V) needs a fault-tolerant replicated
// log so that edge scopes can make control decisions without a cloud: a
// Raft group formed by edge/gateway nodes keeps coordinating through node
// crashes and (minority) partitions, whereas the ML2 baseline's
// cloud-resident controller is a single point of failure.
//
// This is a faithful single-group Raft: randomized election timeouts,
// RequestVote with the up-to-date-log check, AppendEntries consistency
// check with backtracking, commit only for current-term entries, and
// crash-recovery from explicitly persistent state (term, votedFor, log),
// which survives in RaftStorage outside the node object.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/node.hpp"

namespace riot::coord {

enum class RaftRole : std::uint8_t { kFollower, kCandidate, kLeader };

std::string_view to_string(RaftRole r);

/// A replicated command; opaque to Raft.
using Command = std::string;

struct LogEntry {
  std::uint64_t term = 0;
  Command command;
};

/// State that must survive crashes. One instance per peer, owned by the
/// test/scenario, handed to the RaftPeer by reference — a crash destroys
/// the peer's volatile state but not this.
///
/// With log compaction, `log` holds the entries after `snapshot_index`;
/// indices in the API remain absolute (1-based), so existing callers are
/// unaffected until they call RaftPeer::compact().
struct RaftStorage {
  std::uint64_t current_term = 0;
  net::NodeId voted_for = net::kInvalidNode;
  std::vector<LogEntry> log;  // entries snapshot_index+1 .. last_index

  // Compaction state: everything up to snapshot_index is summarized by
  // snapshot_state (an opaque state-machine image).
  std::uint64_t snapshot_index = 0;
  std::uint64_t snapshot_term = 0;
  std::string snapshot_state;

  [[nodiscard]] std::uint64_t last_index() const {
    return snapshot_index + log.size();
  }
  [[nodiscard]] std::uint64_t last_term() const {
    return log.empty() ? snapshot_term : log.back().term;
  }
  /// Term of the entry at an absolute index; snapshot_term at the snapshot
  /// boundary, 0 outside the known range.
  [[nodiscard]] std::uint64_t term_at(std::uint64_t index) const {
    if (index == snapshot_index) return snapshot_term;
    if (index < snapshot_index || index > last_index()) return 0;
    return log[index - snapshot_index - 1].term;
  }
  [[nodiscard]] const LogEntry& entry(std::uint64_t index) const {
    return log[index - snapshot_index - 1];
  }
};

class RaftPeer : public net::Node {
 public:
  /// `apply` is invoked exactly once per committed index per *incarnation*;
  /// after a crash-recovery the state machine is rebuilt by reapplying the
  /// log from index 1 (apply must therefore be deterministic).
  RaftPeer(net::Network& network, RaftStorage& storage);

  /// Fix the peer group (including self). Call on every peer before start().
  void set_peers(std::vector<net::NodeId> peers);

  /// Propose a command. Returns the prospective log index if this peer is
  /// the leader, nullopt otherwise (client should retry elsewhere).
  std::optional<std::uint64_t> propose(Command command);

  void on_apply(std::function<void(std::uint64_t index, const Command&)> cb) {
    apply_cb_ = std::move(cb);
  }
  void on_leader_change(std::function<void(net::NodeId)> cb) {
    leader_cb_ = std::move(cb);
  }
  /// Invoked when the state machine must be reset from a snapshot image
  /// (after recovery with a compacted log, or on InstallSnapshot from the
  /// leader). The callback replaces the state machine wholesale; applies
  /// resume from `index + 1`.
  void on_restore_snapshot(
      std::function<void(std::uint64_t index, const std::string& state)> cb) {
    restore_cb_ = std::move(cb);
  }

  /// Compact the log through `up_to_index` (must be <= the last applied
  /// index), recording `state_machine_image` as the snapshot. Returns
  /// false if the index is not yet applied or already compacted.
  bool compact(std::uint64_t up_to_index, std::string state_machine_image);

  [[nodiscard]] RaftRole role() const { return role_; }
  [[nodiscard]] bool is_leader() const { return role_ == RaftRole::kLeader; }
  [[nodiscard]] std::uint64_t current_term() const {
    return storage_.current_term;
  }
  [[nodiscard]] std::uint64_t commit_index() const { return commit_index_; }

 protected:
  void on_start() override;
  void on_crash() override;
  void on_recover() override;

 private:
  struct RequestVote {
    std::uint64_t term;
    std::uint64_t last_log_index;
    std::uint64_t last_log_term;
  };
  struct RequestVoteReply {
    std::uint64_t term;
    bool granted;
  };
  struct AppendEntries {
    std::uint64_t term;
    std::uint64_t prev_log_index;
    std::uint64_t prev_log_term;
    std::vector<LogEntry> entries;
    std::uint64_t leader_commit;
    std::uint32_t wire_size() const {
      return static_cast<std::uint32_t>(40 + entries.size() * 48);
    }
  };
  struct AppendEntriesReply {
    std::uint64_t term;
    bool success;
    std::uint64_t match_index;  // on success: last replicated index
    std::uint64_t hint_index;   // on failure: follower's log length + 1
  };
  struct InstallSnapshot {
    std::uint64_t term;
    std::uint64_t snapshot_index;
    std::uint64_t snapshot_term;
    std::string state;
    std::uint32_t wire_size() const {
      return static_cast<std::uint32_t>(40 + state.size());
    }
  };
  struct InstallSnapshotReply {
    std::uint64_t term;
    std::uint64_t match_index;
  };

  void become_follower(std::uint64_t term);
  void become_candidate();
  void become_leader();
  void reset_election_timer();
  void broadcast_heartbeats();
  void replicate_to(net::NodeId peer);
  void advance_commit();
  void apply_committed();
  void note_leader(net::NodeId leader);

  void handle_request_vote(net::NodeId from, const RequestVote& rv);
  void handle_vote_reply(net::NodeId from, const RequestVoteReply& reply);
  void handle_append(net::NodeId from, const AppendEntries& ae);
  void handle_append_reply(net::NodeId from, const AppendEntriesReply& reply);
  void handle_install_snapshot(net::NodeId from, const InstallSnapshot& is);
  void restore_from_snapshot();

  [[nodiscard]] std::size_t majority() const { return peers_.size() / 2 + 1; }

  RaftStorage& storage_;
  sim::Rng rng_;
  sim::Counter& elections_total_;
  sim::Counter& leader_changes_total_;
  std::vector<net::NodeId> peers_;  // includes self
  // Open span for an in-progress election; parented on the failed leader's
  // incident, closed when this peer wins or steps back to follower.
  obs::SpanContext election_span_;

  // Volatile state (lost on crash).
  RaftRole role_ = RaftRole::kFollower;
  net::NodeId known_leader_ = net::kInvalidNode;
  std::uint64_t commit_index_ = 0;
  std::uint64_t last_applied_ = 0;
  std::uint64_t election_generation_ = 0;
  // Distinct granters, not a count: the network may duplicate a
  // RequestVoteReply, and a double-counted grant would hand a minority
  // candidate the election (split-brain under partition + duplication).
  std::set<net::NodeId> votes_from_;
  sim::EventId heartbeat_timer_ = sim::kInvalidEventId;
  std::unordered_map<net::NodeId, std::uint64_t> next_index_;
  std::unordered_map<net::NodeId, std::uint64_t> match_index_;

  std::function<void(std::uint64_t, const Command&)> apply_cb_;
  std::function<void(net::NodeId)> leader_cb_;
  std::function<void(std::uint64_t, const std::string&)> restore_cb_;
};

}  // namespace riot::coord
