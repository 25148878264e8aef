// SWIM-style membership and failure detection.
//
// Decentralized failure detection is the first mechanism the paper's
// coordination pillar needs: "situating coordination facilities on edge
// components eliminates central points of failure" (Section V). SWIM gives
// every member a consistent-enough view of who is alive without any
// monitor node:
//
//   - each protocol period, a member pings one random peer;
//   - on timeout it asks k other peers to ping indirectly;
//   - still no ack => the peer is *suspected* and the suspicion gossips;
//   - a suspected member that hears about itself refutes by bumping its
//     incarnation number; unrefuted suspicion becomes *dead* after a
//     timeout.
//
// Membership updates ride piggybacked on the ping/ack traffic (infection-
// style dissemination), so the protocol has no broadcast and its load per
// member is constant in group size.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/node.hpp"

namespace riot::membership {

enum class MemberState : std::uint8_t { kAlive, kSuspect, kDead };

std::string_view to_string(MemberState s);

/// One gossiped membership assertion. Precedence follows SWIM: higher
/// incarnation wins; at equal incarnation, Dead > Suspect > Alive.
struct MemberUpdate {
  net::NodeId member;
  MemberState state = MemberState::kAlive;
  std::uint32_t incarnation = 0;
};

/// What callers tune; the protocol's fixed constants are in swim.cpp.
struct SwimConfig {
  sim::SimTime period = sim::seconds(1);          // protocol period T
  sim::SimTime ping_timeout = sim::millis(300);   // direct ack wait
  sim::SimTime suspect_timeout = sim::seconds(3); // suspicion -> dead
  int max_piggyback = 6;                          // updates per message
};

/// Membership updates waiting to ride on outgoing messages, each with a
/// retransmission budget.
///
/// take() serves the least-transmitted first (the SWIM paper's piggyback
/// policy). A plain FIFO scan starves the queue's tail once the view is
/// large: after a mass-suspicion storm (~n queued updates, a handful of
/// slots, ~24 transmissions each) a refutation enqueued at the back would
/// wait queue/slots full budgets before its first ride, so dead verdicts
/// outlive any realistic quiescent period. Serving the freshest (highest
/// remaining budget) entries gets refutations on the wire immediately.
class PiggybackQueue {
 public:
  /// Queue `update` for `budget` transmissions. A newer assertion about a
  /// member supersedes any queued one.
  void push(const MemberUpdate& update, int budget);

  /// Up to `max` updates for one message; each taken entry spends one
  /// transmission and leaves the queue when its budget is spent. When more
  /// than `max` are queued, the queue is first reordered by remaining
  /// budget, highest first, equal budgets in queue order: the order
  /// std::stable_sort gives, by a counting sort into reused buffers. A
  /// non-empty result has room for one more update (callers may append a
  /// verdict about the peer they are writing to).
  [[nodiscard]] std::vector<MemberUpdate> take(std::size_t max);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    MemberUpdate update;
    int remaining = 0;
  };

  void order_by_remaining();

  std::vector<Entry> entries_;
  // Counting-sort buffers, kept across calls so a take allocates only its
  // result: the sorted copy (swapped with entries_) and bucket offsets.
  std::vector<Entry> sorted_;
  std::vector<std::uint32_t> bucket_start_;
};

/// Per-node SWIM agent. Construct one per participating node, seed all of
/// them with the full peer list (or let joins propagate), then start().
class SwimMember : public net::Node {
 public:
  SwimMember(net::Network& network, SwimConfig config = {});

  // Wire messages.
  struct Ping {
    std::uint64_t seq;
    std::vector<MemberUpdate> updates;
  };
  struct Ack {
    std::uint64_t seq;
    std::vector<MemberUpdate> updates;
  };
  struct PingReq {
    std::uint64_t seq;
    net::NodeId target;
    std::vector<MemberUpdate> updates;
  };
  // Ack relayed back by an indirect prober.
  struct IndirectAck {
    std::uint64_t seq;
    net::NodeId target;
    std::vector<MemberUpdate> updates;
  };

  /// Introduce a known peer as initially alive (bootstrap).
  void add_peer(net::NodeId peer);

  /// View accessors.
  [[nodiscard]] MemberState state_of(net::NodeId peer) const;
  [[nodiscard]] std::vector<net::NodeId> alive_peers() const;
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }

  /// Callbacks, invoked on local view transitions.
  void on_member_dead(std::function<void(net::NodeId)> cb) {
    dead_cb_ = std::move(cb);
  }
  void on_member_alive(std::function<void(net::NodeId)> cb) {
    alive_cb_ = std::move(cb);
  }

 protected:
  void on_start() override;
  void on_recover() override;
  void on_crash() override;

 private:
  struct MemberInfo {
    MemberState state = MemberState::kAlive;
    std::uint32_t incarnation = 0;
    sim::SimTime suspected_at = sim::kSimTimeZero;
    // Open suspicion span; dead/alive transitions close it (the dead span
    // becomes its child, so incident -> suspect -> dead reads as a chain).
    obs::SpanContext suspect_span;
  };

  void protocol_period();
  void probe(net::NodeId target);
  void probe_dead();
  void on_ping(net::NodeId from, const Ping& ping);
  void on_ack(net::NodeId from, const Ack& ack);
  void on_ping_req(net::NodeId from, const PingReq& req);
  void on_indirect_ack(net::NodeId from, const IndirectAck& ack);
  void ack_received_for(net::NodeId target);

  /// members_.try_emplace that also files a new member in by_id_.
  std::pair<MemberInfo&, bool> admit(net::NodeId peer);
  void apply_updates(const std::vector<MemberUpdate>& updates);
  void apply(const MemberUpdate& update);
  void enqueue_update(const MemberUpdate& update);
  std::vector<MemberUpdate> take_piggyback();
  void check_suspects();
  void mark(net::NodeId peer, MemberState state, std::uint32_t incarnation);

  [[nodiscard]] std::vector<net::NodeId> shuffled_alive(
      std::size_t max_count, net::NodeId exclude = net::kInvalidNode);

  SwimConfig cfg_;
  sim::Rng rng_;
  sim::Counter& suspect_total_;
  sim::Counter& dead_total_;
  sim::Counter& refute_total_;
  std::uint32_t incarnation_ = 0;
  std::uint64_t next_seq_ = 1;
  // Round-robin position over the (sorted) dead set for probe_dead().
  std::size_t dead_probe_cursor_ = 0;
  // Iteration order of members_ is part of the trace (check_suspects marks
  // in it), so the map stays the owner; by_id_ is a view of the same
  // entries in id order for the draws that need a sorted candidate list.
  // Members are never removed, and map nodes do not move on rehash.
  std::unordered_map<net::NodeId, MemberInfo> members_;
  using Member = decltype(members_)::value_type;
  std::vector<const Member*> by_id_;
  std::size_t suspects_ = 0;  // members_ entries in kSuspect
  PiggybackQueue outbox_;
  // Probes awaiting an ack (direct or indirect), keyed by target.
  std::unordered_map<net::NodeId, sim::EventId> awaiting_;
  // Relays we owe an IndirectAck for: (target -> requesters).
  std::unordered_map<net::NodeId, std::vector<std::pair<net::NodeId, std::uint64_t>>>
      relay_requests_;
  std::function<void(net::NodeId)> dead_cb_;
  std::function<void(net::NodeId)> alive_cb_;
};

}  // namespace riot::membership
