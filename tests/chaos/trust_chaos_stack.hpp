// Byzantine-edge trust scenario: dispatchers spread verifiable work over a
// fleet of edge workers while a fraction of the fleet actively lies.
//
// The population is `edges` worker endpoints plus `dispatchers` client
// endpoints; dispatcher d owns the contiguous shard of edges
// [d*edges/dispatchers, (d+1)*edges/dispatchers) and round-robins
// deadline-budgeted calls over it. Every call outcome is attributed to the
// worker in one shared trust::TrustStore:
//
//   verified response        -> kSuccess
//   tainted response         -> kVerifyFailed  (the falsify hook's taint)
//   timeout / budget blown   -> kDeadlineMissed
//   breaker open             -> kBreakerTrip
//
// Routing consults the store: quarantined workers are skipped, except when
// should_probe() grants the per-peer rehabilitation slot, in which case the
// dispatcher sends one real call anyway — the probe traffic that lets a
// wrongly-quarantined (crashed-then-recovered) worker earn its way back.
//
// Chaos logical node i maps to edge worker i, so schedules (generated or
// handcrafted) target workers: falsify/selective-drop/delay-inflate windows
// make Byzantine adversaries, crash windows make honest-but-down victims.
// Adversary windows deliberately span horizon + cooldown ("persistently
// Byzantine"): probes into a liar keep failing verification, so quarantine
// must hold; crash windows revert, so their victims must rehabilitate.
//
// Invariants (the headline quarantine-with-recovery pair, via
// trust::chaos::QuarantineChecker):
//   eventually trust_adversaries_quarantined — every persistently
//           Byzantine worker ends the run quarantined.
//   eventually trust_honest_clear — no honest worker (including crash
//           victims) is still quarantined after the cooldown.
// Goodput is exposed (clean_successes) so tests can assert the adversarial
// run keeps >= 80% of a healthy baseline's verified goodput.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos_run.hpp"
#include "net/chaos_hooks.hpp"
#include "net/node.hpp"
#include "net/rpc.hpp"
#include "trust/chaos_checks.hpp"
#include "trust/trust.hpp"

namespace riot::chaos_test {

class TrustChaosStack {
 public:
  struct Config {
    std::size_t edges = 45;        // == profile.node_count
    std::size_t dispatchers = 5;   // edges + dispatchers = endpoint count
    sim::SimTime call_period = sim::millis(100);  // per-dispatcher tick
    // Trust-blind ablation: outcomes are still observed (the store keeps
    // scoring) but routing ignores quarantine — the regime the bench
    // compares reputation-aware routing against.
    bool use_trust = true;
    trust::TrustConfig trust;
  };

  struct WorkReq {
    std::uint64_t value = 0;
  };
  struct WorkResp {
    std::uint64_t value = 0;
  };

  TrustChaosStack(const sim::chaos::ChaosSchedule& schedule,
                  const sim::chaos::ChaosProfile& profile, Config config)
      : chaos_(schedule, profile, 0x7bad7bad7bad7badULL),
        config_(config),
        store_(chaos_.sim, chaos_.metrics, chaos_.trace, config.trust),
        checker_(store_) {
    build();
    // Chaos targets map to edge workers; dispatchers stay honest and up.
    chaos_.hooks = net::chaos_hooks_for(chaos_.network, targets_);
    register_invariants();
  }

  sim::chaos::ChaosRunReport run() {
    return chaos_.run([this] { start_workload(); });
  }

  [[nodiscard]] sim::TraceLog& trace() { return chaos_.trace; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return chaos_.metrics; }
  [[nodiscard]] trust::TrustStore& store() { return store_; }
  [[nodiscard]] const trust::chaos::QuarantineChecker& checker() const {
    return checker_;
  }
  [[nodiscard]] std::size_t endpoint_count() const {
    return edges_.size() + dispatchers_.size();
  }
  [[nodiscard]] std::uint64_t total_calls() const { return total_calls_; }
  /// Verified (untainted) successes — the goodput the invariant compares.
  [[nodiscard]] std::uint64_t clean_successes() const {
    return clean_successes_;
  }
  [[nodiscard]] std::uint64_t tainted_responses() const {
    return tainted_responses_;
  }

  /// Build the scenario's adversarial schedule: every `adversary_stride`-th
  /// edge turns persistently Byzantine (falsify + selective-drop windows
  /// spanning warmup -> horizon + cooldown), and every `crash_stride`-th
  /// edge — skipping adversaries — suffers an honest mid-run crash it must
  /// be rehabilitated from. Deterministic in its arguments; `seed` only
  /// names the replaying run.
  static sim::chaos::ChaosSchedule byzantine_schedule(
      std::uint64_t seed, const sim::chaos::ChaosProfile& profile,
      std::size_t adversary_stride, std::size_t crash_stride,
      sim::SimTime crash_length) {
    using namespace sim::chaos;
    ChaosSchedule s;
    s.seed = seed;
    s.node_count = profile.node_count;
    s.horizon = profile.horizon;
    const sim::SimTime persist =
        profile.horizon + profile.cooldown - profile.warmup;
    for (std::uint32_t i = 0; i < profile.node_count; ++i) {
      if (adversary_stride != 0 && i % adversary_stride == 0) {
        s.actions.push_back(ChaosAction{ActionKind::kFalsify, profile.warmup,
                                        persist, {i}, 0.75});
        s.actions.push_back(ChaosAction{ActionKind::kSelectiveDrop,
                                        profile.warmup, persist, {i}, 0.2});
      } else if (crash_stride != 0 && i % crash_stride == 1) {
        s.actions.push_back(ChaosAction{ActionKind::kCrash,
                                        profile.warmup + sim::seconds(1),
                                        crash_length, {i}, 0.0});
      }
    }
    std::stable_sort(s.actions.begin(), s.actions.end(),
                     [](const ChaosAction& a, const ChaosAction& b) {
                       return a.at < b.at;
                     });
    return s;
  }

  /// Adversaries implied by byzantine_schedule's stride, for the checker.
  void mark_adversaries(std::size_t adversary_stride) {
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      if (adversary_stride != 0 && i % adversary_stride == 0) {
        checker_.mark_adversary(edges_[i]->id());
      }
    }
  }

 private:
  struct Host : net::Node {
    explicit Host(net::Network& network) : net::Node(network), rpc(*this) {}
    net::RpcEndpoint rpc;
  };

  struct Dispatcher {
    std::unique_ptr<Host> host;
    std::size_t shard_begin = 0;
    std::size_t shard_end = 0;
    std::size_t cursor = 0;
  };

  void build() {
    for (std::size_t i = 0; i < config_.edges; ++i) {
      auto edge = std::make_unique<Host>(chaos_.network);
      edge->rpc.serve<WorkReq, WorkResp>([](net::NodeId, const WorkReq& req) {
        return WorkResp{req.value * 2 + 1};
      });
      targets_.push_back({edge.get()});
      edges_.push_back(std::move(edge));
    }
    const std::size_t shard = config_.edges / config_.dispatchers;
    for (std::size_t d = 0; d < config_.dispatchers; ++d) {
      Dispatcher dispatcher;
      dispatcher.host = std::make_unique<Host>(chaos_.network);
      dispatcher.host->rpc.set_breaker(
          net::BreakerConfig{.window = 8,
                             .min_samples = 4,
                             .failure_threshold = 0.5,
                             .open_timeout = sim::millis(800)});
      dispatcher.shard_begin = d * shard;
      dispatcher.shard_end =
          d + 1 == config_.dispatchers ? config_.edges : (d + 1) * shard;
      dispatcher.cursor = dispatcher.shard_begin;
      dispatchers_.push_back(std::move(dispatcher));
    }
  }

  void register_invariants() {
    chaos_.registry.add_eventually("trust_adversaries_quarantined", [this] {
      return checker_.check_adversaries_quarantined();
    });
    chaos_.registry.add_eventually("trust_honest_clear", [this] {
      return checker_.check_honest_clear();
    });
  }

  void start_workload() {
    const auto period_ms =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                      sim::to_millis(config_.call_period)));
    for (std::size_t d = 0; d < dispatchers_.size(); ++d) {
      const sim::SimTime offset =
          sim::millis((static_cast<std::int64_t>(d) * 13) % period_ms);
      chaos_.sim.schedule_after(offset, [this, d] {
        chaos_.sim.schedule_every(config_.call_period,
                                  [this, d] { tick(d); });
      });
    }
  }

  /// Next edge in the dispatcher's shard that routing allows: quarantined
  /// workers are skipped unless the trust store grants a probe slot.
  std::optional<std::size_t> route(Dispatcher& dispatcher) {
    const std::size_t size = dispatcher.shard_end - dispatcher.shard_begin;
    for (std::size_t step = 0; step < size; ++step) {
      const std::size_t i = dispatcher.cursor;
      dispatcher.cursor = dispatcher.cursor + 1 == dispatcher.shard_end
                              ? dispatcher.shard_begin
                              : dispatcher.cursor + 1;
      if (!config_.use_trust) return i;
      const net::NodeId id = edges_[i]->id();
      if (!store_.quarantined(id) || store_.should_probe(id)) return i;
    }
    return std::nullopt;  // whole shard quarantined; try again next tick
  }

  void tick(std::size_t d) {
    Dispatcher& dispatcher = dispatchers_[d];
    const auto target = route(dispatcher);
    if (!target) return;
    const net::NodeId edge = edges_[*target]->id();
    const std::uint64_t sent = next_value_++;
    ++total_calls_;
    dispatcher.host->rpc.call_result<WorkReq, WorkResp>(
        edge, WorkReq{sent},
        net::RpcOptions{.timeout = sim::millis(100),
                        .max_attempts = 2,
                        .deadline = sim::millis(400),
                        .backoff_base = sim::millis(20),
                        .backoff_cap = sim::millis(100)},
        [this, edge, sent](net::RpcResult<WorkResp> r) {
          if (r.ok()) {
            // Result verification: the caller can recompute the expected
            // value, and the taint flag models detectable falsification.
            const bool verified =
                !r.tainted && r.value->value == sent * 2 + 1;
            if (verified) {
              ++clean_successes_;
              store_.observe(edge, trust::Outcome::kSuccess);
            } else {
              ++tainted_responses_;
              store_.observe(edge, trust::Outcome::kVerifyFailed);
            }
            return;
          }
          store_.observe(edge, r.error == net::RpcError::kCircuitOpen
                                   ? trust::Outcome::kBreakerTrip
                                   : trust::Outcome::kDeadlineMissed);
        });
  }

  ChaosRun chaos_;
  Config config_;

  trust::TrustStore store_;
  trust::chaos::QuarantineChecker checker_;

  std::vector<std::unique_ptr<Host>> edges_;
  net::LogicalNodes targets_;  // chaos logical node i = {edge i}
  std::vector<Dispatcher> dispatchers_;
  std::uint64_t next_value_ = 0;
  std::uint64_t total_calls_ = 0;
  std::uint64_t clean_successes_ = 0;
  std::uint64_t tainted_responses_ = 0;
};

/// Envelope for the 1000-endpoint trust soak (`ctest -L scale`): 900 edge
/// workers + 100 dispatchers, 10% persistent adversaries, and a band of
/// honest crash victims that must be quarantined *and* rehabilitated.
inline sim::chaos::ChaosProfile trust_scale_profile() {
  sim::chaos::ChaosProfile p;
  p.node_count = 900;
  p.warmup = sim::seconds(2);
  p.horizon = sim::seconds(12);
  p.cooldown = sim::seconds(20);
  return p;
}

inline TrustChaosStack::Config trust_scale_config() {
  TrustChaosStack::Config c;
  c.edges = 900;
  c.dispatchers = 100;
  c.call_period = sim::millis(100);
  return c;
}

inline constexpr std::size_t kTrustAdversaryStride = 10;  // 10% Byzantine
inline constexpr std::size_t kTrustCrashStride = 300;     // 3 honest victims

}  // namespace riot::chaos_test
