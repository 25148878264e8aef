// Chaos harness: randomized fault-schedule exploration.
//
// The paper's end-state (Sections I–III) is a system that stays correct
// under crashes, partitions, and intermittent connectivity; the companion
// roadmap (Ratasich et al.) names systematic fault activation plus runtime
// monitoring as the way to *demonstrate* that, rather than assert it. The
// deterministic Simulation + FaultInjector make every hand-written fault
// scenario reproducible — this module makes them *searchable*:
//
//   seed --> ChaosSchedule (crash / partition / isolate / loss / delay /
//            duplicate / clock-skew windows) --> FaultInjector --> run
//        --> InvariantRegistry checks (during and after the run)
//        --> on violation: print the seed for one-command replay and
//            delta-debug (ddmin) the schedule down to a minimal failing
//            repro, exportable as a self-contained JSON artifact.
//
// Layering follows FaultInjector's philosophy: this module owns *what*
// happens and *when* (schedule grammar, generation, shrinking); the
// ChaosHooks struct owns *how* each action touches the world, so the
// harness stays independent of net/coord/data and any scenario can bind
// its own stack (tests/chaos wires the full Raft+SWIM+CRDT+MAPE stack).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace riot::sim::chaos {

// --- Schedule grammar ------------------------------------------------------

enum class ActionKind : std::uint8_t {
  kCrash,      // crash targets[0] at `at`, restart after `duration`
  kPartition,  // split {targets} from the rest, heal after `duration`
  kIsolate,    // cut targets[0] off from everyone, rejoin after `duration`
  kLoss,       // ambient drop probability = magnitude for `duration`
  kDelay,      // global latency factor = magnitude for `duration`
  kDuplicate,  // message duplication probability = magnitude for `duration`
  kClockSkew,  // targets[0]'s clock offset = magnitude seconds for `duration`
  // Byzantine behaviours (per-endpoint misbehaviour, not mere failure).
  kFalsify,        // targets[0] taints outbound msgs with p = magnitude
  kSelectiveDrop,  // targets[0] ack-then-discards outbound with p = magnitude
  kDelayInflate,   // targets[0]'s outbound latency x magnitude
  kFlipFlop,       // targets[0] alternates falsify-on/off within the window
};

inline constexpr std::array<ActionKind, 11> kAllActionKinds = {
    ActionKind::kCrash,     ActionKind::kPartition, ActionKind::kIsolate,
    ActionKind::kLoss,      ActionKind::kDelay,     ActionKind::kDuplicate,
    ActionKind::kClockSkew, ActionKind::kFalsify,
    ActionKind::kSelectiveDrop, ActionKind::kDelayInflate,
    ActionKind::kFlipFlop};

std::string_view to_string(ActionKind kind);
std::optional<ActionKind> action_kind_from(std::string_view name);

/// One disruption window. `magnitude` is kind-specific (probability for
/// kLoss/kDuplicate, multiplier for kDelay, seconds for kClockSkew, unused
/// otherwise); `targets` are logical node indices (group A for kPartition).
struct ChaosAction {
  ActionKind kind = ActionKind::kCrash;
  SimTime at = kSimTimeZero;
  SimTime duration = kSimTimeZero;
  std::vector<std::uint32_t> targets;
  double magnitude = 0.0;
  [[nodiscard]] bool operator==(const ChaosAction&) const = default;
};

struct ChaosSchedule {
  std::uint64_t seed = 0;  // generator seed; 0 for handcrafted schedules
  std::size_t node_count = 0;
  SimTime horizon = kSimTimeZero;  // all windows revert by this time
  std::vector<ChaosAction> actions;
  [[nodiscard]] bool operator==(const ChaosSchedule&) const = default;
};

/// Generation envelope: how many disruptions, of which kinds, how violent.
/// Windows are placed in [warmup, horizon) and clamped to revert by the
/// horizon, so the [horizon, horizon+cooldown) tail is disruption-free and
/// eventual invariants (convergence, repair) get a fair quiescent period.
struct ChaosProfile {
  std::size_t node_count = 5;
  SimTime warmup = seconds(3);
  SimTime horizon = seconds(25);
  SimTime cooldown = seconds(15);
  std::size_t min_actions = 2;
  std::size_t max_actions = 8;
  SimTime min_duration = millis(500);
  SimTime max_duration = seconds(5);
  // Relative likelihood per kind (0 disables a kind).
  double crash_weight = 3.0;
  double partition_weight = 2.0;
  double isolate_weight = 2.0;
  double loss_weight = 1.5;
  double delay_weight = 1.0;
  double duplicate_weight = 1.0;
  double skew_weight = 1.0;
  // Violence caps.
  double max_loss = 0.8;          // ambient drop probability
  double min_delay_factor = 1.5;  // latency multipliers drawn in
  double max_delay_factor = 8.0;  //   [min, max)
  double max_duplicate = 0.5;     // duplication probability
  double max_skew_seconds = 2.0;  // clock offset
  // Byzantine kinds: all default-off (weight 0) so existing profiles and
  // seeds generate bit-identical schedules; a scenario opts in explicitly.
  double falsify_weight = 0.0;
  double selective_drop_weight = 0.0;
  double delay_inflate_weight = 0.0;
  double flip_flop_weight = 0.0;
  double max_adversary_prob = 0.9;  // falsify/selective-drop/flip-flop cap
  // Never crash/isolate more than this many nodes at once (keeps quorum
  // protocols able to make progress; 0 = unrestricted).
  std::size_t max_concurrent_down = 2;
};

/// Deterministically expand `seed` into a schedule: same (seed, profile)
/// => identical schedule, byte for byte. The generator avoids overlapping
/// windows of the same family (two partitions, two crashes of one node) so
/// that revert order can never "heal" a disruption another window still
/// claims.
[[nodiscard]] ChaosSchedule generate_schedule(std::uint64_t seed,
                                              const ChaosProfile& profile);

// --- Serialization (riot-chaos-v1) ----------------------------------------

/// Compact single-line JSON; stable field order, %.17g doubles, so the
/// emit->parse->emit round trip is byte-identical (the determinism tests
/// rely on this).
[[nodiscard]] std::string schedule_to_json(const ChaosSchedule& schedule);

/// Parse a schedule from riot-chaos-v1 JSON. Unknown object keys are
/// skipped, so richer repro artifacts (obs::write_chaos_repro) load too.
[[nodiscard]] std::optional<ChaosSchedule> schedule_from_json(
    std::string_view json, std::string* error = nullptr);

// --- Execution -------------------------------------------------------------

/// How schedule actions touch the world. Scenarios bind these to their
/// stack (network partition calls, crashing every component co-located on
/// a logical node, ...). Unset hooks turn the corresponding kinds into
/// no-ops — a scenario only pays for what it models.
struct ChaosHooks {
  std::function<void(std::uint32_t node)> crash_node;
  std::function<void(std::uint32_t node)> restart_node;
  std::function<void(const std::vector<std::uint32_t>& group_a)> partition;
  std::function<void()> heal;
  std::function<void(std::uint32_t node)> isolate;
  std::function<void(std::uint32_t node)> unisolate;
  std::function<void(double probability)> ambient_loss;     // revert: 0
  std::function<void(double factor)> latency_factor;        // revert: 1
  std::function<void(double probability)> duplicate;        // revert: 0
  std::function<void(std::uint32_t node, SimTime skew)> clock_skew;  // revert: 0
  // Byzantine, per node. A flip-flop window is expanded at install time
  // into several short falsify windows, so scenarios only bind these three.
  std::function<void(std::uint32_t node, double probability)> falsify;  // 0
  std::function<void(std::uint32_t node, double probability)>
      selective_drop;                                                   // 0
  std::function<void(std::uint32_t node, double factor)> delay_inflate;  // 1
};

/// Install every schedule action into `injector` as windowed disruptions
/// (call FaultInjector::arm() afterwards). One object, shared by the
/// installed windows, owns their state: every knob (a node's crash,
/// isolation, skew and Byzantine knobs; the partition layout; the three
/// global knobs) keeps the windows open on it; a window's apply opens it
/// and its revert closes it. So even handcrafted, overlapping schedules are
/// safe: a node restarts only when its last crash window ends, an inner
/// window's revert restores the outer window's layout or magnitude instead
/// of healing the world out from under it, and a heal re-asserts isolation
/// that still-open isolate windows hold. Reverts landing on one simulation
/// instant drain topology-first, restarts-last (Disruption::revert_phase),
/// so a node restarting exactly when a partition heals rejoins the healed
/// topology, never the pre-heal groups. Returns the number of actions
/// installed.
std::size_t install_schedule(const ChaosSchedule& schedule,
                             FaultInjector& injector, ChaosHooks hooks);

// --- Invariants ------------------------------------------------------------

struct InvariantViolation {
  std::string invariant;
  std::string message;
  SimTime at = kSimTimeZero;
};

/// Per-invariant evaluation tally, the raw material for the
/// riot_chaos_invariant_* metric families (obs::tag_invariant_stats).
struct InvariantStats {
  std::string name;
  bool always = true;
  std::uint64_t checks = 0;      // evaluations performed
  std::uint64_t violations = 0;  // evaluations that returned a message
};

/// A registry of named correctness properties over a running scenario.
/// `always` invariants are safety properties — checked periodically while
/// the schedule executes and once more at the end; `eventually` invariants
/// are convergence properties — only meaningful after the disruption-free
/// cooldown, so they run in the final check only. A check returns nullopt
/// when the property holds, else a human-readable description.
class InvariantRegistry {
 public:
  using CheckFn = std::function<std::optional<std::string>()>;

  void add_always(std::string name, CheckFn check);
  void add_eventually(std::string name, CheckFn check);

  /// Run the `always` checks; first violation per invariant is appended to
  /// `out` (stamped `now`). Returns how many were appended.
  std::size_t check_now(SimTime now, std::vector<InvariantViolation>& out) const;

  /// Run every check (end of run). Same dedup/stamping rules.
  std::size_t check_final(SimTime now,
                          std::vector<InvariantViolation>& out) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Evaluation tallies per invariant, in registration order. (A violated
  /// invariant stops being re-evaluated — see the dedup rule — so its
  /// `checks` stops advancing at the recording point.)
  [[nodiscard]] std::vector<InvariantStats> stats() const;

 private:
  struct Entry {
    std::string name;
    bool always;
    CheckFn check;
    // Tallies survive const check passes (observability, not semantics).
    mutable std::uint64_t checks = 0;
    mutable std::uint64_t violations = 0;
  };
  std::size_t run(bool include_eventually, SimTime now,
                  std::vector<InvariantViolation>& out) const;
  std::vector<Entry> entries_;
};

// --- Exploration and shrinking ---------------------------------------------

/// Outcome of executing one schedule against a fresh scenario instance.
struct ChaosRunReport {
  std::vector<InvariantViolation> violations;
  std::uint64_t trace_hash = 0;  // digest of the run's TraceLog (determinism)
  [[nodiscard]] bool failed() const { return !violations.empty(); }
};

/// Build a fresh scenario, install the schedule, run it, check invariants.
/// Must be deterministic: the same schedule yields the same report.
using ScheduleRunFn = std::function<ChaosRunReport(const ChaosSchedule&)>;

struct ShrinkResult {
  ChaosSchedule schedule;                     // minimal still-failing form
  std::vector<InvariantViolation> violations; // of the minimal schedule
  std::size_t runs = 0;                       // scenario executions spent
};

struct ChaosFailure {
  std::uint64_t seed = 0;
  std::size_t iteration = 0;
  ChaosSchedule schedule;                     // as generated
  std::vector<InvariantViolation> violations; // of the generated schedule
  ShrinkResult shrunk;
  /// One-command replay string + minimal schedule, for the test log.
  [[nodiscard]] std::string summary() const;
};

struct ExploreResult {
  std::size_t iterations = 0;  // schedules executed
  std::optional<ChaosFailure> failure;
};

/// Drives the search: derives per-iteration seeds from a base seed,
/// generates a schedule each, runs it, and on the first invariant
/// violation shrinks the schedule with ddmin + per-action simplification.
class ChaosExplorer {
 public:
  ChaosExplorer(ChaosProfile profile, ScheduleRunFn run)
      : profile_(std::move(profile)), run_(std::move(run)) {}

  /// Stable per-iteration seed derivation (splitmix of base + index), so
  /// "iteration 7 of base seed S" is replayable in isolation.
  [[nodiscard]] static std::uint64_t iteration_seed(std::uint64_t base_seed,
                                                    std::size_t iteration);

  /// Run up to `iterations` schedules; stop at (and shrink) the first
  /// failure.
  ExploreResult explore(std::uint64_t base_seed, std::size_t iterations,
                        bool shrink_on_failure = true);

  /// Re-execute the schedule a single seed generates (the one-command
  /// replay path printed on failure).
  ChaosRunReport replay(std::uint64_t seed);

  /// Delta-debug `failing` to a locally-minimal failing schedule: ddmin
  /// over the action list, then per-action simplification (halve
  /// durations, soften magnitudes, shrink partition groups). Spends at
  /// most `max_runs` scenario executions.
  ShrinkResult shrink(const ChaosSchedule& failing, std::size_t max_runs = 256);

  [[nodiscard]] const ChaosProfile& profile() const { return profile_; }

 private:
  ChaosProfile profile_;
  ScheduleRunFn run_;
};

// --- Utilities -------------------------------------------------------------

/// FNV-1a digest over every event field of a trace log; two runs of the
/// same seed must produce the same hash (the determinism tests' oracle).
[[nodiscard]] std::uint64_t trace_hash(const TraceLog& trace);

/// Parse `key=value` out of a TraceEvent detail string ("term=3 ..." =>
/// 3); nullopt when the key is absent or non-numeric. Lets invariant
/// checkers consume the kv pairs protocols already emit.
[[nodiscard]] std::optional<std::uint64_t> parse_detail_u64(
    std::string_view detail, std::string_view key);

}  // namespace riot::sim::chaos
