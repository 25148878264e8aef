#include "sim/workload/generator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net_fixture.hpp"
#include "obs/slo.hpp"
#include "sim/workload/admission.hpp"
#include "sim/workload/service.hpp"
#include "sim/workload/shape.hpp"

namespace riot::sim::workload {
namespace {

// --- Rate shapes -----------------------------------------------------------

TEST(RateShape, ConstantIsAlwaysOne) {
  const RateShape shape = RateShape::constant();
  EXPECT_DOUBLE_EQ(shape.multiplier_at(kSimTimeZero), 1.0);
  EXPECT_DOUBLE_EQ(shape.multiplier_at(minutes(90)), 1.0);
  EXPECT_DOUBLE_EQ(shape.max_multiplier(), 1.0);
}

TEST(RateShape, DiurnalSwingsBetweenTroughAndPeak) {
  const RateShape shape = RateShape::diurnal(seconds(100), 0.2, 2.0);
  // Starts at the trough ("midnight"), peaks half a period later.
  EXPECT_NEAR(shape.multiplier_at(kSimTimeZero), 0.2, 1e-9);
  EXPECT_NEAR(shape.multiplier_at(seconds(50)), 2.0, 1e-9);
  EXPECT_NEAR(shape.multiplier_at(seconds(100)), 0.2, 1e-9);
  // Quarter period is the midpoint of the swing.
  EXPECT_NEAR(shape.multiplier_at(seconds(25)), 1.1, 1e-9);
  EXPECT_DOUBLE_EQ(shape.max_multiplier(), 2.0);
}

TEST(RateShape, BurstIsPeakInsideWindowOneOutside) {
  const RateShape shape = RateShape::burst(seconds(10), seconds(2), 5.0);
  EXPECT_DOUBLE_EQ(shape.multiplier_at(millis(500)), 5.0);
  EXPECT_DOUBLE_EQ(shape.multiplier_at(seconds(3)), 1.0);
  // Periodic: the window recurs every cycle.
  EXPECT_DOUBLE_EQ(shape.multiplier_at(seconds(21)), 5.0);
  EXPECT_DOUBLE_EQ(shape.multiplier_at(seconds(25)), 1.0);
}

TEST(RateShape, FlashCrowdRampsPeaksAndDecays) {
  const RateShape shape =
      RateShape::flash_crowd(seconds(10), seconds(1), 4.0, seconds(5));
  EXPECT_DOUBLE_EQ(shape.multiplier_at(seconds(9)), 1.0);
  EXPECT_NEAR(shape.multiplier_at(millis(10500)), 2.5, 1e-9);  // mid-ramp
  EXPECT_NEAR(shape.multiplier_at(seconds(11)), 4.0, 1e-9);    // peak
  // Decay: strictly decreasing back toward 1, never below it.
  const double later = shape.multiplier_at(seconds(16));
  EXPECT_LT(later, 4.0);
  EXPECT_GT(later, 1.0);
  EXPECT_NEAR(shape.multiplier_at(minutes(10)), 1.0, 1e-3);
}

// --- Open-loop generator ---------------------------------------------------

TEST(OpenLoopGenerator, RateMatchesConfigured) {
  Simulation sim(7);
  std::uint64_t sunk = 0;
  OpenLoopGenerator gen(sim, {.clients = 1000, .rate_per_client_hz = 1.0},
                        [&](std::uint32_t) { ++sunk; });
  gen.start();
  sim.run_until(seconds(50));
  // 1000 clients * 1 Hz * 50 s = 50k expected; Poisson sd ~224.
  EXPECT_NEAR(static_cast<double>(gen.arrivals()), 50000.0, 1500.0);
  EXPECT_EQ(gen.arrivals(), sunk);
}

TEST(OpenLoopGenerator, SameSeedSameTraceHash) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(seed);
    OpenLoopConfig config{
        .clients = 500,
        .rate_per_client_hz = 2.0,
        .shape = RateShape::flash_crowd(seconds(5), millis(500), 3.0,
                                        seconds(2))};
    OpenLoopGenerator gen(sim, config, [](std::uint32_t) {});
    gen.start();
    sim.run_until(seconds(10));
    return std::pair{gen.arrivals(), gen.trace_hash()};
  };
  const auto a = run(123);
  const auto b = run(123);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second) << "same seed must replay the same trace";
  const auto c = run(124);
  EXPECT_NE(a.second, c.second) << "different seed, different trace";
}

TEST(OpenLoopGenerator, ShapedThinningAcceptsSubsetOfCandidates) {
  Simulation sim(11);
  // Burst shape: peak 4x for 1 s out of every 4 s => mean multiplier 1.75,
  // envelope 4. Accepted fraction should track 1.75/4.
  OpenLoopGenerator gen(
      sim,
      {.clients = 1000,
       .rate_per_client_hz = 1.0,
       .shape = RateShape::burst(seconds(4), seconds(1), 4.0)},
      [](std::uint32_t) {});
  gen.start();
  sim.run_until(seconds(40));
  EXPECT_GT(gen.candidates(), gen.arrivals());
  const double accept_rate = static_cast<double>(gen.arrivals()) /
                             static_cast<double>(gen.candidates());
  EXPECT_NEAR(accept_rate, 1.75 / 4.0, 0.05);
}

TEST(OpenLoopGenerator, StopHaltsArrivals) {
  Simulation sim(3);
  OpenLoopGenerator gen(sim, {.clients = 100, .rate_per_client_hz = 10.0},
                        [](std::uint32_t) {});
  gen.start();
  sim.run_until(seconds(5));
  gen.stop();
  const std::uint64_t at_stop = gen.arrivals();
  EXPECT_GT(at_stop, 0u);
  sim.run_until(seconds(10));
  EXPECT_EQ(gen.arrivals(), at_stop);
}

// --- Closed-loop generator -------------------------------------------------

TEST(ClosedLoopGenerator, CyclesThroughThinkAndIssue) {
  Simulation sim(5);
  std::uint64_t completed = 0;
  ClosedLoopGenerator gen(
      sim, {.clients = 50, .think_mean = millis(100)},
      [&](std::uint32_t, ClosedLoopGenerator::Done done) {
        // Model a 10 ms service before completing.
        sim.schedule_after(millis(10), [&completed, done = std::move(done)] {
          ++completed;
          done();
        });
      });
  gen.start();
  sim.run_until(seconds(10));
  // Each user cycles roughly every 110 ms => ~90 requests per user.
  EXPECT_GT(completed, 50u * 60u);
  EXPECT_LE(gen.in_flight(), 50u) << "closed loop never exceeds population";
  EXPECT_EQ(gen.arrivals(), completed + gen.in_flight());
}

TEST(ClosedLoopGenerator, SameSeedSameTraceHash) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(seed);
    ClosedLoopGenerator gen(
        sim, {.clients = 20, .think_mean = millis(50)},
        [&](std::uint32_t, ClosedLoopGenerator::Done done) {
          sim.schedule_after(millis(5), std::move(done));
        });
    gen.start();
    sim.run_until(seconds(5));
    return gen.trace_hash();
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

// --- Admission queue -------------------------------------------------------

struct AdmissionTest : ::testing::Test {
  AdmissionTest() : sim(42) {}
  Simulation sim;
  std::vector<int> served;
  std::vector<std::pair<int, ShedReason>> shed;

  AdmissionQueue::Served serve_cb(int id) {
    return [this, id] { served.push_back(id); };
  }
  AdmissionQueue::Shed shed_cb(int id) {
    return [this, id](ShedReason r) { shed.emplace_back(id, r); };
  }
};

TEST_F(AdmissionTest, ServesWithinCapacityInEdfOrder) {
  AdmissionQueue q(sim, {.queue_capacity = 8,
                         .concurrency = 1,
                         .service_time = millis(10)});
  // First request occupies the slot; the rest queue with shuffled
  // deadlines and must drain earliest-deadline-first.
  q.offer(seconds(10), serve_cb(0), shed_cb(0));
  q.offer(seconds(3), serve_cb(3), shed_cb(3));
  q.offer(seconds(1), serve_cb(1), shed_cb(1));
  q.offer(seconds(2), serve_cb(2), shed_cb(2));
  sim.run_until(seconds(1));
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(served, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.served(), 4u);
}

TEST_F(AdmissionTest, FullQueueShedsMostSlackEntry) {
  AdmissionQueue q(sim, {.queue_capacity = 2,
                         .concurrency = 1,
                         .service_time = millis(10)});
  q.offer(seconds(9), serve_cb(0), shed_cb(0));  // in service
  q.offer(seconds(5), serve_cb(1), shed_cb(1));  // queued
  q.offer(seconds(8), serve_cb(2), shed_cb(2));  // queued (most slack)
  // Queue full. An urgent newcomer evicts the latest-deadline entry (#2)...
  q.offer(seconds(2), serve_cb(3), shed_cb(3));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], (std::pair{2, ShedReason::kQueueFull}));
  // ...while a newcomer with more slack than everyone queued bounces.
  q.offer(seconds(7), serve_cb(4), shed_cb(4));
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[1], (std::pair{4, ShedReason::kQueueFull}));
  sim.run_until(seconds(1));
  EXPECT_EQ(served, (std::vector<int>{0, 3, 1}));
  EXPECT_EQ(q.shed_full(), 2u);
  EXPECT_EQ(q.queue_high_water(), 2u);
}

TEST_F(AdmissionTest, EqualDeadlinesAreServedFifo) {
  AdmissionQueue q(sim, {.queue_capacity = 8,
                         .concurrency = 1,
                         .service_time = millis(10)});
  q.offer(seconds(9), serve_cb(0), shed_cb(0));  // in service
  q.offer(seconds(5), serve_cb(1), shed_cb(1));
  q.offer(seconds(5), serve_cb(2), shed_cb(2));
  q.offer(seconds(2), serve_cb(3), shed_cb(3));  // jumps the tie
  q.offer(seconds(5), serve_cb(4), shed_cb(4));
  q.offer(seconds(5), serve_cb(5), shed_cb(5));
  sim.run_until(seconds(1));
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(served, (std::vector<int>{0, 3, 1, 2, 4, 5}));
}

TEST_F(AdmissionTest, FullQueueEvictsNewestOfTheLatestDeadline) {
  AdmissionQueue q(sim, {.queue_capacity = 3,
                         .concurrency = 1,
                         .service_time = millis(10)});
  q.offer(seconds(9), serve_cb(0), shed_cb(0));  // in service
  q.offer(seconds(8), serve_cb(1), shed_cb(1));
  q.offer(seconds(8), serve_cb(2), shed_cb(2));
  q.offer(seconds(8), serve_cb(3), shed_cb(3));
  // Full, and three entries share the latest deadline: the most recently
  // queued of them yields first.
  q.offer(seconds(2), serve_cb(4), shed_cb(4));
  q.offer(seconds(1), serve_cb(5), shed_cb(5));
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[0], (std::pair{3, ShedReason::kQueueFull}));
  EXPECT_EQ(shed[1], (std::pair{2, ShedReason::kQueueFull}));
  sim.run_until(seconds(1));
  EXPECT_EQ(served, (std::vector<int>{0, 5, 4, 1}));
}

TEST_F(AdmissionTest, DeadOnArrivalIsShedNotQueued) {
  AdmissionQueue q(sim, {.queue_capacity = 8,
                         .concurrency = 1,
                         .service_time = millis(10)});
  sim.run_until(seconds(5));
  // Deadline already unmeetable: now + service_time > deadline.
  q.offer(seconds(5) + millis(5), serve_cb(0), shed_cb(0));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], (std::pair{0, ShedReason::kExpired}));
  EXPECT_EQ(q.shed_expired(), 1u);
  EXPECT_EQ(q.queued(), 0u);
}

TEST_F(AdmissionTest, ExpiredWhileQueuedIsShedAtDispatch) {
  AdmissionQueue q(sim, {.queue_capacity = 8,
                         .concurrency = 1,
                         .service_time = millis(100)});
  q.offer(seconds(10), serve_cb(0), shed_cb(0));   // holds the slot 100 ms
  q.offer(millis(150), serve_cb(1), shed_cb(1));   // dead by dispatch time
  q.offer(seconds(10), serve_cb(2), shed_cb(2));   // still viable
  sim.run_until(seconds(1));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], (std::pair{1, ShedReason::kExpired}));
  EXPECT_EQ(served, (std::vector<int>{0, 2}));
  EXPECT_EQ(q.shed_expired(), 1u);
}

TEST_F(AdmissionTest, NoDeadlineMeansLowestPriority) {
  AdmissionQueue q(sim, {.queue_capacity = 4,
                         .concurrency = 1,
                         .service_time = millis(10)});
  q.offer(seconds(9), serve_cb(0), shed_cb(0));    // in service
  q.offer(kSimTimeZero, serve_cb(1), shed_cb(1));  // no deadline: most slack
  q.offer(seconds(5), serve_cb(2), shed_cb(2));
  sim.run_until(seconds(1));
  EXPECT_EQ(served, (std::vector<int>{0, 2, 1}));
}

TEST_F(AdmissionTest, ZeroCapacityBouncesEveryOverflow) {
  AdmissionQueue q(sim, {.queue_capacity = 0,
                         .concurrency = 1,
                         .service_time = millis(10)});
  q.offer(seconds(1), serve_cb(0), shed_cb(0));  // direct to the free slot
  q.offer(seconds(1), serve_cb(1), shed_cb(1));  // nothing to evict: bounce
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], (std::pair{1, ShedReason::kQueueFull}));
  sim.run_until(seconds(1));
  EXPECT_EQ(served, (std::vector<int>{0}));
}

// --- Serving fabric end to end ---------------------------------------------

struct ServingTest : riot::testing::NetFixture {};

TEST_F(ServingTest, RequestsFlowThroughAllTiers) {
  FabricConfig config;
  ServingFabric fabric(network, config);
  obs::SloTracker slo(metrics, "serving", millis(250));
  ClientBank bank(network, fabric,
                  net::RpcOptions{.timeout = millis(300),
                                  .max_attempts = 2,
                                  .deadline = millis(600)},
                  slo, /*bank_index=*/0);
  for (std::uint32_t c = 0; c < 200; ++c) {
    sim.schedule_after(millis(c), [&bank, c] { bank.issue(c); });
  }
  sim.run_until(seconds(5));
  EXPECT_EQ(slo.total(), 200u) << "every request must resolve";
  EXPECT_EQ(bank.succeeded(), 200u);
  EXPECT_EQ(bank.in_flight(), 0u);
  EXPECT_GT(slo.attainment(), 0.95);
  const TierStats gateway = fabric.stats(Tier::kGateway);
  const TierStats edge = fabric.stats(Tier::kEdge);
  const TierStats cloud = fabric.stats(Tier::kCloud);
  EXPECT_EQ(gateway.offered, 200u);
  EXPECT_EQ(gateway.forwarded, 200u) << "gateway terminates nothing";
  EXPECT_GT(edge.served_local, 0u) << "edge cache hits";
  EXPECT_GT(cloud.served, 0u) << "edge misses reach the cloud";
  EXPECT_EQ(edge.served_local + cloud.served, 200u);
}

TEST_F(ServingTest, ShedRequestsFailFastWithReasonCounted) {
  FabricConfig config;
  // One tiny gateway: 1 slot, 10 ms service, queue of 2 => a burst of 20
  // must shed most of itself.
  config.gateway = {.nodes = 1,
                    .admission = {.queue_capacity = 2,
                                  .concurrency = 1,
                                  .service_time = millis(10)},
                    .local_fraction = 0.0};
  ServingFabric fabric(network, config);
  obs::SloTracker slo(metrics, "serving", millis(250));
  ClientBank bank(network, fabric,
                  net::RpcOptions{.timeout = millis(300),
                                  .max_attempts = 1,
                                  .deadline = millis(500)},
                  slo);
  for (std::uint32_t c = 0; c < 20; ++c) bank.issue(c);
  sim.run_until(seconds(5));
  EXPECT_EQ(slo.total(), 20u) << "shed requests still answer (fail fast)";
  const TierStats gateway = fabric.stats(Tier::kGateway);
  EXPECT_GT(gateway.shed_full, 0u);
  EXPECT_EQ(gateway.offered, 20u);
  EXPECT_EQ(slo.failed(), gateway.shed_full + gateway.shed_expired +
                              gateway.downstream_failed);
  EXPECT_EQ(metrics.counter_value("riot_serving_shed_total",
                                  {{"tier", "gateway"},
                                   {"reason", "queue_full"}}),
            gateway.shed_full);
}

TEST_F(ServingTest, CrashedEdgeDegradesButGatewayAnswers) {
  FabricConfig config;
  config.edge.nodes = 1;  // single edge: crashing it cuts the whole path
  ServingFabric fabric(network, config);
  obs::SloTracker slo(metrics, "serving", millis(250));
  ClientBank bank(network, fabric,
                  net::RpcOptions{.timeout = millis(100),
                                  .max_attempts = 1,
                                  .deadline = millis(300)},
                  slo);
  fabric.tier(Tier::kEdge)[0]->crash();
  for (std::uint32_t c = 0; c < 10; ++c) bank.issue(c);
  sim.run_until(seconds(5));
  // Calls complete (budget-bounded), but nothing succeeds.
  EXPECT_EQ(slo.total(), 10u);
  EXPECT_EQ(bank.succeeded(), 0u);
  EXPECT_EQ(bank.in_flight(), 0u);
  fabric.tier(Tier::kEdge)[0]->recover();
  for (std::uint32_t c = 0; c < 10; ++c) bank.issue(c);
  sim.run_until(seconds(10));
  EXPECT_GT(bank.succeeded(), 0u) << "service recovers with the edge";
}

}  // namespace
}  // namespace riot::sim::workload
