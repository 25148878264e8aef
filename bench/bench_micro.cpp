// Microbenchmarks (google-benchmark): the cost of the primitives every
// experiment is built from. These document baseline performance and guard
// against regressions; the figures/tables come from the scenario benches.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "coord/raft.hpp"
#include "data/crdt.hpp"
#include "model/ctl.hpp"
#include "model/ltl.hpp"
#include "net_harness.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

using namespace riot;

namespace {

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation simulation;
    const int events = static_cast<int>(state.range(0));
    std::uint64_t sink = 0;
    for (int i = 0; i < events; ++i) {
      simulation.schedule_at(sim::micros(i), [&sink] { ++sink; });
    }
    state.ResumeTiming();
    simulation.run_to_completion();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationEventThroughput)->Arg(10'000)->Arg(100'000);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng(1);
  double sink = 0.0;
  for (auto _ : state) {
    sink += rng.uniform01();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void BM_HistogramRecord(benchmark::State& state) {
  sim::Histogram histogram;
  sim::Rng rng(2);
  for (auto _ : state) {
    histogram.record(rng.uniform(0.0, 1e6));
  }
  benchmark::DoNotOptimize(histogram.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_NetworkSendDeliver(benchmark::State& state) {
  bench::Harness h(3);
  struct Payload {
    int x;
  };
  std::uint64_t received = 0;
  const auto a = h.network.register_endpoint([](const net::Message&) {});
  const auto b = h.network.register_endpoint(
      [&received](const net::Message&) { ++received; });
  for (auto _ : state) {
    h.network.send(a, b, Payload{1});
    h.sim.run_for(sim::millis(2));
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_GCounterMerge(benchmark::State& state) {
  sim::Rng rng(4);
  data::GCounter a, b;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    a.increment(static_cast<data::ReplicaId>(rng.below(64)), rng.below(100));
    b.increment(static_cast<data::ReplicaId>(rng.below(64)), rng.below(100));
  }
  for (auto _ : state) {
    data::GCounter merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.value());
  }
}
BENCHMARK(BM_GCounterMerge)->Arg(64);

void BM_OrSetMerge(benchmark::State& state) {
  sim::Rng rng(5);
  data::OrSet<std::string> a, b;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    a.add("element" + std::to_string(rng.below(100)), 1);
    b.add("element" + std::to_string(rng.below(100)), 2);
  }
  for (auto _ : state) {
    data::OrSet<std::string> merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.size());
  }
}
BENCHMARK(BM_OrSetMerge)->Arg(50)->Arg(200);

// One anti-entropy delivery in the chaos soak's steady state: a copy of the
// sender's set (the message) merged into a receiver that already holds
// every tag. Seven elements, `range(0)` tags added by five replicas.
void BM_OrSetSyncConverged(benchmark::State& state) {
  data::OrSet<std::string> sender, receiver;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    sender.add("t" + std::to_string(i % 7),
               static_cast<data::ReplicaId>(i % 5));
  }
  receiver.merge(sender);
  for (auto _ : state) {
    const data::OrSet<std::string> message = sender;
    receiver.merge(message);
    benchmark::DoNotOptimize(receiver.size());
  }
}
BENCHMARK(BM_OrSetSyncConverged)->Arg(300);

void BM_LtlProgressPerEvent(benchmark::State& state) {
  const auto formula = model::ltl::always(model::ltl::implies(
      model::ltl::prop("req"),
      model::ltl::eventually(model::ltl::prop("resp"))));
  model::ltl::Monitor monitor(formula);
  sim::Rng rng(6);
  for (auto _ : state) {
    model::ltl::State trace_state;
    if (rng.chance(0.2)) trace_state.insert("req");
    if (rng.chance(0.5)) trace_state.insert("resp");
    monitor.step(trace_state);
    if (monitor.verdict() != model::ltl::Verdict::kInconclusive) {
      monitor.reset();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LtlProgressPerEvent);

void BM_CtlCheck(benchmark::State& state) {
  sim::Rng rng(7);
  model::Kripke m;
  const auto running = m.prop("running");
  const auto failed = m.prop("failed");
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.2)) {
      m.add_state({failed});
    } else {
      m.add_state({running});
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) {
      m.add_transition(static_cast<model::StateId>(i),
                       static_cast<model::StateId>(rng.below(n)));
    }
  }
  m.set_initial(0);
  const auto property = model::ctl::ag(model::ctl::implies(
      model::ctl::prop("failed"), model::ctl::af(model::ctl::prop("running"))));
  model::ctl::Checker checker(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.holds(property));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CtlCheck)->Arg(1'000)->Arg(10'000);

void BM_RaftCommitThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    bench::Harness h(8);
    std::vector<std::unique_ptr<coord::RaftStorage>> storages;
    std::vector<std::unique_ptr<coord::RaftPeer>> peers;
    std::vector<net::NodeId> ids;
    for (int i = 0; i < 3; ++i) {
      storages.push_back(std::make_unique<coord::RaftStorage>());
      peers.push_back(
          std::make_unique<coord::RaftPeer>(h.network, *storages.back()));
      ids.push_back(peers.back()->id());
    }
    for (auto& p : peers) {
      p->set_peers(ids);
      p->start();
    }
    h.sim.run_until(sim::seconds(5));
    coord::RaftPeer* leader = nullptr;
    for (auto& p : peers) {
      if (p->is_leader()) leader = p.get();
    }
    state.ResumeTiming();
    if (leader != nullptr) {
      for (int i = 0; i < 200; ++i) leader->propose("command");
      h.sim.run_for(sim::seconds(2));
      benchmark::DoNotOptimize(leader->commit_index());
    }
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_RaftCommitThroughput);

/// ConsoleReporter that also tees each run into the BENCH_*.json artifact.
class TeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit TeeReporter(bench::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      report_.row({run.benchmark_name(),
                   bench::fmt(run.GetAdjustedRealTime(), 1),
                   bench::fmt(run.GetAdjustedCPUTime(), 1),
                   bench::fmt_u(static_cast<std::uint64_t>(run.iterations))});
    }
  }

 private:
  bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report("bench_micro");
  report.config("seed", "fixed-per-case");  // each BM_* pins its own
  report.columns({"name", "real_time_ns", "cpu_time_ns", "iterations"});
  TeeReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return report.write() ? 0 : 1;
}
