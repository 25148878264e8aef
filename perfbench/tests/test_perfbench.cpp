// The benchmark's own tests: digest reproducibility, the percentile tail
// rule, the allocation counter, and a shortened run of every workload
// through the correctness gate.
//
//   python3 perfbench/run.py --test
#include <gtest/gtest.h>

#include <new>
#include <vector>

#include "alloc_count.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace riot::perfbench {
namespace {

/// A serving repetition small enough for a unit test: 10k clients at
/// 1 Hz, one simulated second timed.
Shape smoke_shape() {
  Shape shape;
  shape.clients = 10000;
  shape.rate_per_client_hz = 1.0;
  shape.warmup = sim::millis(500);
  shape.window = sim::seconds(1);
  shape.drain = sim::seconds(1);
  shape.soak_nodes = 20;
  shape.soak_cells = 4;
  return shape;
}

TEST(PerfbenchDigest, SameSeedReproducesAndSeedsDiffer) {
  const Shape shape = smoke_shape();
  for (const Workload w : kWorkloads) {
    const RepResult a = run_rep(w, 11, shape);
    const RepResult b = run_rep(w, 11, shape);
    const RepResult c = run_rep(w, 12, shape);
    EXPECT_EQ(a.digest, b.digest) << name_of(w);
    EXPECT_EQ(a.counts, b.counts) << name_of(w);
    EXPECT_NE(a.digest, c.digest) << name_of(w);
  }
}

TEST(PerfbenchPercentile, NeverReportsWithFewerThanTenBeyond) {
  for (std::size_t n = 1; n <= 3000; n += 7) {
    std::vector<double> sorted(n);
    for (std::size_t i = 0; i < n; ++i) sorted[i] = static_cast<double>(i);
    for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
      const auto p = percentile(sorted, q);
      if (!p) continue;
      EXPECT_GE(p->beyond, kMinTailSamples) << "n=" << n << " q=" << q;
      // `beyond` is the count of samples strictly above the reported one.
      EXPECT_EQ(p->beyond, n - 1 - static_cast<std::size_t>(p->value));
    }
  }
  // 200k samples carry p99.99 with exactly 20 samples beyond it; 99k do
  // not carry it at all.
  std::vector<double> big(200000, 1.0);
  ASSERT_TRUE(percentile(big, 0.9999).has_value());
  EXPECT_EQ(percentile(big, 0.9999)->beyond, 20u);
  EXPECT_FALSE(percentile(std::vector<double>(99000, 1.0), 0.9999));
  EXPECT_EQ(percentile({1.0, 2.0, 3.0}, 0.5), std::nullopt);
}

TEST(PerfbenchAllocCounter, CountsAKnownAllocation) {
  const std::uint64_t before = heap_allocs();
  // A direct call to operator new cannot be elided, unlike a
  // new-expression.
  void* p = ::operator new(64);
  const std::uint64_t after = heap_allocs();
  ::operator delete(p);
  EXPECT_EQ(after - before, 1u);
}

TEST(PerfbenchSmoke, EveryWorkloadPassesTheGate) {
  const Shape shape = smoke_shape();
  for (const Workload w : kWorkloads) {
    const RepResult r = run_rep(w, default_seed(w), shape);
    EXPECT_TRUE(r.errors.empty())
        << name_of(w) << ": " << (r.errors.empty() ? "" : r.errors.front());
    EXPECT_GT(r.attempted, 0u) << name_of(w);
    EXPECT_EQ(r.failed, 0u) << name_of(w);
    EXPECT_GT(r.window_wall_s, 0.0) << name_of(w);
    EXPECT_GT(r.window_allocs, 0u) << name_of(w);
    if (is_serving(w)) {
      EXPECT_EQ(r.latencies_ms.size(), r.attempted) << name_of(w);
    }
  }
}

TEST(PerfbenchTrace, ProfilerAccountsForTheTracedWindow) {
  LayerProfiler profiler;
  SpanLog spans;
  const RepTrace trace{.profiler = &profiler, .spans = &spans, .rep = 1};
  const RepResult r =
      run_rep(Workload::kServeHealthy, 42, smoke_shape(), &trace);
  std::uint64_t events = 0;
  double handler_ns = 0.0;
  for (const auto& [name, row] : profiler.rows()) {
    events += row.events;
    handler_ns += row.handler_ns;
  }
  EXPECT_EQ(events, r.window_events);
  EXPECT_LE(handler_ns, r.window_wall_s * 1e9);
  EXPECT_TRUE(profiler.rows().count("net"));
  EXPECT_TRUE(profiler.rows().count("client-bank"));
  EXPECT_GT(r.issue.calls, 0u);
  // rep, setup, warmup, window, drain + sampled issue calls.
  EXPECT_GE(spans.size(), 5u);
  // Tracing changes no simulated outcome.
  EXPECT_EQ(r.digest, run_rep(Workload::kServeHealthy, 42, smoke_shape()).digest);
}

}  // namespace
}  // namespace riot::perfbench
