// Chaos invariant checkers for the coordination layer (Raft, gossip).
//
// sim::chaos::InvariantRegistry takes opaque check functions; these
// classes are the protocol-aware bodies behind them, factored out of the
// test scenarios so every chaos stack (smoke, soak, benches) checks the
// same properties the same way. A scenario instantiates one checker per
// Raft group / gossip mesh, wires observation hooks, and registers thin
// lambdas:
//
//   registry.add_always("raft_election_safety",
//                       [&] { return election_safety.check(); });
//
// The checkers are scale-conscious: election safety scans the trace log
// incrementally (a 500 ms poll over a 1k-endpoint soak must not re-walk
// the whole log every tick), and the per-group checks touch only their
// group's peers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coord/gossip.hpp"
#include "coord/raft.hpp"
#include "sim/trace.hpp"

namespace riot::coord::chaos {

/// Raft election safety — at most one distinct leader announcement per
/// (group, term) — across any number of disjoint groups, checked
/// incrementally over the trace log's "raft"/"leader" events. map_node
/// assigns a trace node id (a RaftPeer endpoint) to its group; events
/// from unmapped nodes land in group 0 (the single-group case needs no
/// mapping at all).
class ElectionSafetyChecker {
 public:
  explicit ElectionSafetyChecker(const sim::TraceLog& trace)
      : trace_(&trace) {}

  void map_node(std::uint32_t trace_node, std::uint32_t group) {
    group_of_[trace_node] = group;
  }

  /// Scan events appended since the last call; returns (and remembers) the
  /// first double-leader term found.
  std::optional<std::string> check();

 private:
  const sim::TraceLog* trace_;
  std::size_t cursor_ = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> group_of_;
  // (group, term) -> distinct announcing nodes.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::set<std::uint32_t>>
      leaders_;
  std::optional<std::string> violation_;
};

/// Per-group Raft checks over the peers' live state and persistent logs:
/// state-machine safety, leader agreement, log matching, and the
/// no-lost-acked-writes linearizable-prefix property. The scenario feeds
/// every on_apply callback into observe_apply; "acked" means applied by a
/// majority of the group.
class RaftGroupChecker {
 public:
  void add_peer(RaftPeer* peer, RaftStorage* storage) {
    peers_.push_back(peer);
    storages_.push_back(storage);
  }

  [[nodiscard]] std::size_t size() const { return peers_.size(); }

  /// Record that group member `member` applied `cmd` at `index`.
  void observe_apply(std::size_t member, std::uint64_t index,
                     const Command& cmd);

  /// Whoever applies an index first defines it; any member applying a
  /// different command at that index is a state-machine safety violation.
  [[nodiscard]] std::optional<std::string> sm_safety() const {
    return sm_violation_;
  }

  /// After quiescence: exactly one alive leader in the group's max term.
  [[nodiscard]] std::optional<std::string> leader_agreement() const;

  /// Log matching: same index + same term => same command, across every
  /// pair of persistent logs (above their snapshots).
  [[nodiscard]] std::optional<std::string> log_agreement() const;

  /// Every majority-applied command is present in every persistent log
  /// (or compacted into its snapshot).
  [[nodiscard]] std::optional<std::string> no_lost_acked() const;

 private:
  std::vector<RaftPeer*> peers_;
  std::vector<RaftStorage*> storages_;
  std::map<std::uint64_t, Command> applied_;  // index -> first command
  std::map<std::uint64_t, std::set<std::size_t>> appliers_;
  std::set<std::uint64_t> acked_;  // indices applied by a majority
  std::optional<std::string> sm_violation_;
};

/// Gossip eventual delivery: after quiescence every node in the mesh must
/// hold the expected (latest) value for every expected key. The scenario
/// records each put it performs via expect(); last call per key wins —
/// matching gossip's per-key version order when a single origin writes
/// the key.
class GossipConvergenceChecker {
 public:
  void add_node(GossipNode* node) { nodes_.push_back(node); }

  void expect(const std::string& key, std::string value) {
    expected_[key] = std::move(value);
  }


  [[nodiscard]] std::optional<std::string> check() const;

 private:
  std::vector<GossipNode*> nodes_;
  std::unordered_map<std::string, std::string> expected_;
};

}  // namespace riot::coord::chaos
