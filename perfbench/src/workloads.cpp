#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "alloc_count.hpp"
#include "chaos_stack.hpp"
#include "measure.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "sim/chaos.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"
#include "sim/workload/generator.hpp"
#include "sim/workload/service.hpp"

namespace riot::perfbench {
namespace {

namespace wl = sim::workload;
using Clock = std::chrono::steady_clock;

// serve-faulted replays one fixed fault scenario (bench_serving's default
// schedule seed) so the seed varies arrivals and network draws, not which
// nodes crash when; the soak likewise keeps soak_profile()'s schedule for
// seed 7777 and lets the seed drive the protocols' randomness.
constexpr std::uint64_t kServeFaultScheduleSeed = 42 ^ 0xC0FFEE;
constexpr std::uint64_t kSoakScheduleSeed = 7777;
constexpr std::size_t kSoakSetupSamples = 5;
// A traced window keeps every 1000th ClientBank::issue call as a span.
constexpr std::uint64_t kIssueSpanEvery = 1000;

constexpr wl::Tier kTiers[] = {wl::Tier::kGateway, wl::Tier::kEdge,
                               wl::Tier::kCloud};

/// Sum of every labeled child of a counter family (0 if absent).
std::uint64_t family_total(const obs::MetricsRegistry& registry,
                           const std::string& name) {
  const auto it = registry.counters().find(name);
  if (it == registry.counters().end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [key, child] : it->second.children()) {
    total += child.metric.value();
  }
  return total;
}

struct NetCounts {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t bytes = 0;

  static NetCounts read(const obs::MetricsRegistry& registry) {
    return {family_total(registry, "riot_net_sent_total"),
            family_total(registry, "riot_net_delivered_total"),
            family_total(registry, "riot_net_dropped_total"),
            family_total(registry, "riot_net_duplicated_total"),
            family_total(registry, "riot_net_bytes_total")};
  }
  void add_to(RepResult& r, const NetCounts& since) const {
    r.counts.emplace_back("net.sent", sent - since.sent);
    r.counts.emplace_back("net.delivered", delivered - since.delivered);
    r.counts.emplace_back("net.dropped", dropped - since.dropped);
    r.counts.emplace_back("net.duplicated", duplicated - since.duplicated);
    r.counts.emplace_back("net.bytes", bytes - since.bytes);
  }
};

/// bench_serving's sizing rule: a tier runs at ~50% utilization at base
/// load, so overload comes from the flash crowd and faults.
std::size_t nodes_for(double load_per_s, double cap_per_node_s,
                      std::size_t min_nodes) {
  const auto n = static_cast<std::size_t>(
      std::ceil(load_per_s / (0.5 * cap_per_node_s)));
  return std::max(min_nodes, n);
}

/// Sees every request finish through ClientBank's completion callback,
/// right after the bank recorded it in the SloTracker; the tracker's
/// counter deltas tell success and SLO attainment apart. Only requests
/// issued inside (from, to] contribute samples.
class OutcomeRecorder {
 public:
  OutcomeRecorder(const sim::Simulation& sim, const obs::SloTracker& slo,
                  sim::SimTime from, sim::SimTime to, std::size_t expected)
      : sim_(sim), slo_(slo), from_(from), to_(to) {
    latencies_ms_.reserve(expected);
  }

  void finish(sim::SimTime issued_at) {
    const std::uint64_t failed = slo_.failed();
    const std::uint64_t within = slo_.ok_within_slo();
    const bool ok = failed == failed_seen_;
    const bool in_slo = within != within_seen_;
    failed_seen_ = failed;
    within_seen_ = within;
    ++finished_;
    if (issued_at <= from_ || issued_at > to_) return;
    latencies_ms_.push_back(sim::to_millis(sim_.now() - issued_at));
    if (ok) ++ok_;
    if (in_slo) ++within_slo_;
  }

  [[nodiscard]] std::uint64_t finished() const { return finished_; }
  [[nodiscard]] std::uint64_t ok() const { return ok_; }
  [[nodiscard]] std::uint64_t within_slo() const { return within_slo_; }
  std::vector<double>& latencies_ms() { return latencies_ms_; }

 private:
  const sim::Simulation& sim_;
  const obs::SloTracker& slo_;
  sim::SimTime from_;
  sim::SimTime to_;
  std::uint64_t failed_seen_ = 0;
  std::uint64_t within_seen_ = 0;
  std::uint64_t finished_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t within_slo_ = 0;
  std::vector<double> latencies_ms_;
};

wl::FabricConfig fabric_config(double offered_hz) {
  wl::FabricConfig config;
  config.gateway = {.nodes = nodes_for(offered_hz, 4000.0, 4),
                    .admission = {.queue_capacity = 256,
                                  .concurrency = 4,
                                  .service_time = sim::millis(1)},
                    .local_fraction = 0.0};
  config.edge = {.nodes = nodes_for(offered_hz, 8000.0, 2),
                 .admission = {.queue_capacity = 512,
                               .concurrency = 16,
                               .service_time = sim::millis(2)},
                 .local_fraction = 0.6};
  config.cloud = {.nodes = nodes_for(0.4 * offered_hz, 12800.0, 1),
                  .admission = {.queue_capacity = 1024,
                                .concurrency = 64,
                                .service_time = sim::millis(5)},
                  .local_fraction = 0.0};
  return config;
}

/// bench_serving's faulted profile, placed relative to the timed window.
sim::chaos::ChaosProfile serve_fault_profile(const Shape& shape,
                                             std::size_t tier_nodes) {
  const double w = sim::to_seconds(shape.window);
  sim::chaos::ChaosProfile profile;
  profile.node_count = tier_nodes;
  profile.warmup = shape.warmup + sim::seconds_f(0.1 * w);
  profile.horizon = shape.warmup + sim::seconds_f(0.7 * w);
  profile.cooldown = sim::seconds_f(0.3 * w);
  profile.min_actions = 4;
  profile.max_actions = 8;
  profile.max_duration = sim::seconds_f(0.2 * w);
  profile.max_loss = 0.3;
  profile.max_delay_factor = 4.0;
  profile.skew_weight = 0.0;  // deadlines compare caller clocks
  profile.max_concurrent_down = std::max<std::size_t>(1, tier_nodes / 8);
  return profile;
}

void mix_latency_buckets(Digest& digest, const std::vector<double>& ms) {
  std::vector<std::uint64_t> buckets(sim::Histogram::kBuckets, 0);
  for (const double v : ms) {
    ++buckets[static_cast<std::size_t>(sim::Histogram::bucket_for(v * 1e3))];
  }
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] != 0) digest.mix("latency_us.bucket", (b << 40) | buckets[b]);
  }
}

RepResult run_serving(bool faulted, std::uint64_t seed, const Shape& shape,
                      const RepTrace* trace) {
  RepResult r;
  SpanLog* spans = trace != nullptr ? trace->spans : nullptr;
  const std::uint32_t rep_no = trace != nullptr ? trace->rep : 0;
  const auto started = Clock::now();
  const std::uint32_t rep_span =
      spans != nullptr ? spans->open("rep", rep_no) : 0;
  const std::uint32_t setup_span =
      spans != nullptr ? spans->open("setup", rep_no, rep_span) : 0;

  sim::Simulation sim(seed);
  obs::MetricsRegistry metrics;
  obs::Tracer tracer(sim);
  sim::TraceLog log;
  log.set_min_level(sim::TraceLevel::kWarn);
  net::Network network(sim, metrics, tracer, log);

  const double offered_hz =
      static_cast<double>(shape.clients) * shape.rate_per_client_hz;
  wl::ServingFabric fabric(network, fabric_config(offered_hz));

  // End-to-end SLO 250 ms; the 600 ms budget leaves room for one retry.
  obs::SloTracker slo(metrics, "serving", sim::millis(250));
  const net::RpcOptions client_options{.timeout = sim::millis(250),
                                       .max_attempts = 2,
                                       .deadline = sim::millis(600),
                                       .backoff_base = sim::millis(20),
                                       .backoff_cap = sim::millis(100)};
  const std::size_t bank_count =
      std::clamp<std::size_t>(shape.clients / 20000, 1, 64);
  std::vector<std::unique_ptr<wl::ClientBank>> banks;
  banks.reserve(bank_count);
  for (std::size_t b = 0; b < bank_count; ++b) {
    banks.push_back(std::make_unique<wl::ClientBank>(
        network, fabric, client_options, slo, static_cast<std::uint32_t>(b)));
  }

  const sim::SimTime window_start = shape.warmup;
  const sim::SimTime window_end = shape.warmup + shape.window;
  wl::OpenLoopConfig load{.clients = shape.clients,
                          .rate_per_client_hz = shape.rate_per_client_hz};
  if (faulted) {
    // 3x flash crowd 40% into the window: 500 ms ramp, 2 s decay.
    load.shape = wl::RateShape::flash_crowd(
        window_start + sim::seconds_f(0.4 * sim::to_seconds(shape.window)),
        sim::millis(500), /*peak=*/3.0, sim::seconds(2));
  }
  OutcomeRecorder recorder(
      sim, slo, window_start, window_end,
      static_cast<std::size_t>(offered_hz * sim::to_seconds(shape.window) *
                               load.shape.max_multiplier()) +
          1024);

  // Traced windows time every issue() call the sink makes and keep a
  // 1-in-N sample of them as spans.
  bool time_issue = false;
  std::uint32_t window_span = 0;
  auto sink = [&](std::uint32_t client) {
    wl::ClientBank& bank = *banks[client % banks.size()];
    // {pointer, SimTime}: stored inline by std::function, no allocation.
    wl::ClientBank::Done done = [rec = &recorder, at = sim.now()] {
      rec->finish(at);
    };
    if (!time_issue) {
      bank.issue(client, std::move(done));
      return;
    }
    const std::uint64_t allocs = heap_allocs();
    const auto t0 = Clock::now();
    bank.issue(client, std::move(done));
    const auto t1 = Clock::now();
    r.issue.allocs += heap_allocs() - allocs;
    r.issue.ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (spans != nullptr && r.issue.calls % kIssueSpanEvery == 0) {
      spans->add("issue", rep_no, window_span, t0, t1);
    }
    ++r.issue.calls;
  };
  wl::OpenLoopGenerator generator(sim, load, sink, "serving-open");

  // Faults land on tier nodes only: the front door stays up, the fabric
  // degrades. The injector's hooks point into tier_nodes, so it is
  // declared after them and destroyed first.
  std::vector<wl::TierServer*> tier_nodes;
  for (const wl::Tier tier : kTiers) {
    for (auto& node : fabric.tier(tier)) tier_nodes.push_back(node.get());
  }
  sim::FaultInjector injector(sim, log);
  std::size_t chaos_actions = 0;
  if (faulted) {
    const auto schedule = sim::chaos::generate_schedule(
        kServeFaultScheduleSeed, serve_fault_profile(shape, tier_nodes.size()));
    chaos_actions = schedule.actions.size();
    sim::chaos::ChaosHooks hooks;
    hooks.crash_node = [&](std::uint32_t n) { tier_nodes[n]->crash(); };
    hooks.restart_node = [&](std::uint32_t n) { tier_nodes[n]->recover(); };
    hooks.partition = [&](const std::vector<std::uint32_t>& group_a) {
      std::vector<net::NodeId> ids;
      ids.reserve(group_a.size());
      for (const std::uint32_t n : group_a) ids.push_back(tier_nodes[n]->id());
      network.partition({ids});
    };
    hooks.heal = [&] { network.heal_partition(); };
    hooks.isolate = [&](std::uint32_t n) {
      network.isolate(tier_nodes[n]->id());
    };
    hooks.unisolate = [&](std::uint32_t n) {
      network.unisolate(tier_nodes[n]->id());
    };
    hooks.ambient_loss = [&](double p) { network.set_ambient_loss(p); };
    hooks.latency_factor = [&](double f) { network.set_latency_factor(f); };
    hooks.duplicate = [&](double p) { network.set_duplicate_probability(p); };
    sim::chaos::install_schedule(schedule, injector, std::move(hooks));
    injector.arm();
  }
  if (spans != nullptr) spans->close(setup_span);

  // Warm-up: grows the event and flight slabs, RPC tables and admission
  // queues to steady state before anything is timed.
  const std::uint32_t warmup_span =
      spans != nullptr ? spans->open("warmup", rep_no, rep_span) : 0;
  generator.start();
  sim.run_until(window_start);
  if (spans != nullptr) spans->close(warmup_span);
  r.setup_s = seconds_since(started);

  const std::uint64_t arrivals_before = generator.arrivals();
  const std::uint64_t events_before = sim.executed_events();
  const NetCounts net_before = NetCounts::read(metrics);
  if (trace != nullptr && trace->profiler != nullptr) {
    trace->profiler->attach(sim);
  }
  time_issue = trace != nullptr;
  window_span = spans != nullptr ? spans->open("window", rep_no, rep_span) : 0;
  const std::uint64_t allocs_before = heap_allocs();
  const auto window_t0 = Clock::now();
  sim.run_until(window_end);
  r.window_wall_s = seconds_since(window_t0);
  r.window_allocs = heap_allocs() - allocs_before;
  if (spans != nullptr) spans->close(window_span);
  time_issue = false;
  if (trace != nullptr && trace->profiler != nullptr) {
    trace->profiler->detach();
  }
  r.window_sim_s = sim::to_seconds(shape.window);
  r.window_events = sim.executed_events() - events_before;
  const NetCounts net_window = NetCounts::read(metrics);
  const std::uint64_t window_arrivals =
      generator.arrivals() - arrivals_before;

  // Drain: the 600 ms budget bounds every call still in flight.
  const std::uint32_t drain_span =
      spans != nullptr ? spans->open("drain", rep_no, rep_span) : 0;
  generator.stop();
  sim.run_until(window_end + shape.drain);
  if (spans != nullptr) {
    spans->close(drain_span);
    spans->close(rep_span);
  }

  // --- Correctness gate: every issued request recorded exactly once. ----
  std::uint64_t in_flight = 0;
  std::uint64_t succeeded = 0;
  for (const auto& bank : banks) {
    in_flight += bank->in_flight();
    succeeded += bank->succeeded();
  }
  if (slo.total() != generator.arrivals()) {
    r.errors.push_back("SloTracker recorded " + std::to_string(slo.total()) +
                       " requests, generator issued " +
                       std::to_string(generator.arrivals()));
  }
  if (in_flight != 0) {
    r.errors.push_back(std::to_string(in_flight) +
                       " requests still in flight after the drain");
  }
  if (recorder.finished() != generator.arrivals()) {
    r.errors.push_back("completion callbacks ran " +
                       std::to_string(recorder.finished()) + " times for " +
                       std::to_string(generator.arrivals()) + " requests");
  }
  if (recorder.latencies_ms().size() != window_arrivals) {
    r.errors.push_back("window outcomes " +
                       std::to_string(recorder.latencies_ms().size()) +
                       " != window arrivals " +
                       std::to_string(window_arrivals));
  }

  r.ops = window_arrivals;
  r.attempted = window_arrivals;
  r.failed = window_arrivals - std::min<std::uint64_t>(
                                   window_arrivals,
                                   recorder.latencies_ms().size());
  r.ok_within_slo = recorder.within_slo();
  r.ok_pct = window_arrivals == 0 ? 0.0
                                  : 100.0 * static_cast<double>(recorder.ok()) /
                                        static_cast<double>(window_arrivals);
  r.latencies_ms = std::move(recorder.latencies_ms());
  std::sort(r.latencies_ms.begin(), r.latencies_ms.end());

  // --- Counted metrics (exact for a seed). Rates use the timed window;
  // outcome counters cover the whole run, when every call has resolved.
  r.counts.emplace_back("window.requests", window_arrivals);
  r.counts.emplace_back("window.requests_ok", recorder.ok());
  r.counts.emplace_back("window.requests_within_slo", recorder.within_slo());
  r.counts.emplace_back("window.events", r.window_events);
  net_window.add_to(r, net_before);
  r.counts.emplace_back("run.requests", generator.arrivals());
  r.counts.emplace_back("run.requests_ok", succeeded);
  r.counts.emplace_back("run.events", sim.executed_events());

  std::uint64_t calls = 0, completed = 0, timeouts = 0, retries = 0,
                failed_fast = 0, dedup = 0, suppressed = 0, stale = 0,
                shed = 0;
  auto add_rpc = [&](const net::RpcEndpoint& rpc) {
    calls += rpc.calls();
    completed += rpc.completed();
    timeouts += rpc.timeouts();
    retries += rpc.retries();
    failed_fast += rpc.failed_fast();
    dedup += rpc.dedup_hits();
    suppressed += rpc.inflight_suppressed();
    stale += rpc.stale_responses();
    shed += rpc.shed();
  };
  for (const auto& bank : banks) add_rpc(bank->rpc());
  for (auto* node : tier_nodes) add_rpc(node->rpc());
  r.counts.emplace_back("rpc.calls", calls);
  r.counts.emplace_back("rpc.attempts",
                        family_total(metrics, "riot_rpc_attempts_total"));
  r.counts.emplace_back("rpc.completed_ok", completed);
  r.counts.emplace_back("rpc.timeouts", timeouts);
  r.counts.emplace_back("rpc.retries", retries);
  r.counts.emplace_back("rpc.failed_fast", failed_fast);
  r.counts.emplace_back("rpc.dedup_hits", dedup);
  r.counts.emplace_back("rpc.inflight_suppressed", suppressed);
  r.counts.emplace_back("rpc.stale_responses", stale);
  r.counts.emplace_back("rpc.shed", shed);
  r.counts.emplace_back(
      "rpc.breaker_opens",
      metrics.counter_value("riot_rpc_breaker_transitions_total",
                            {{"to", "open"}}));
  for (const wl::Tier tier : kTiers) {
    const wl::TierStats t = fabric.stats(tier);
    const std::string a = "admission." + std::string(wl::to_string(tier));
    const std::string s = "serving." + std::string(wl::to_string(tier));
    r.counts.emplace_back(a + ".offered", t.offered);
    r.counts.emplace_back(a + ".served", t.served);
    r.counts.emplace_back(a + ".shed_full", t.shed_full);
    r.counts.emplace_back(a + ".shed_expired", t.shed_expired);
    r.counts.emplace_back(a + ".queue_high_water", t.queue_high_water);
    r.counts.emplace_back(s + ".served_local", t.served_local);
    r.counts.emplace_back(s + ".forwarded", t.forwarded);
    r.counts.emplace_back(s + ".downstream_failed", t.downstream_failed);
  }
  r.counts.emplace_back("workload.arrivals", generator.arrivals());
  r.counts.emplace_back("workload.candidates", generator.candidates());
  r.counts.emplace_back("workload.trace_hash", generator.trace_hash());
  r.counts.emplace_back("chaos.actions", chaos_actions);

  Digest digest;
  for (const auto& [name, value] : r.counts) digest.mix(name, value);
  mix_latency_buckets(digest, r.latencies_ms);
  r.digest = digest.value();
  return r;
}

RepResult run_soak(std::uint64_t seed, const Shape& shape,
                   const RepTrace* trace) {
  RepResult r;
  SpanLog* spans = trace != nullptr ? trace->spans : nullptr;
  const std::uint32_t rep_no = trace != nullptr ? trace->rep : 0;
  const auto started = Clock::now();
  const std::uint32_t rep_span =
      spans != nullptr ? spans->open("rep", rep_no) : 0;
  const std::uint32_t setup_span =
      spans != nullptr ? spans->open("setup", rep_no, rep_span) : 0;

  // Set-up (schedule generation + stack construction) takes milliseconds,
  // so it is repeated and the median kept; the last stack built runs.
  sim::chaos::ChaosProfile profile = chaos_test::soak_profile();
  profile.node_count = shape.soak_nodes;
  sim::chaos::ChaosSchedule schedule;
  std::optional<chaos_test::ChaosStack> built;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSoakSetupSamples; ++i) {
    const auto t0 = i == 0 ? started : Clock::now();
    built.reset();
    schedule = sim::chaos::generate_schedule(kSoakScheduleSeed, profile);
    // ChaosStack seeds its simulation from the schedule's seed field.
    schedule.seed = seed;
    built.emplace(schedule, profile, shape.soak_cells);
    setup_s.push_back(seconds_since(t0));
  }
  chaos_test::ChaosStack& stack = *built;
  if (spans != nullptr) spans->close(setup_span);
  r.setup_s = median(setup_s);

  // The stack exposes its simulation read-only; the object itself is
  // mutable, and installing a profiler changes no simulated behaviour.
  auto& sim = const_cast<sim::Simulation&>(stack.simulation());
  if (trace != nullptr && trace->profiler != nullptr) {
    trace->profiler->attach(sim);
  }
  const std::uint32_t window_span =
      spans != nullptr ? spans->open("window", rep_no, rep_span) : 0;
  const std::uint64_t allocs_before = heap_allocs();
  const auto window_t0 = Clock::now();
  const sim::chaos::ChaosRunReport report = stack.run();
  r.window_wall_s = seconds_since(window_t0);
  r.window_allocs = heap_allocs() - allocs_before;
  if (spans != nullptr) {
    spans->close(window_span);
    spans->close(rep_span);
  }
  if (trace != nullptr && trace->profiler != nullptr) {
    trace->profiler->detach();
  }
  r.window_sim_s = sim::to_seconds(sim.now());
  r.window_events = sim.executed_events();

  // --- Correctness gate: no violation, every invariant evaluated. -------
  for (const auto& v : report.violations) {
    r.errors.push_back("invariant " + v.invariant + " violated: " +
                       v.message);
  }
  const sim::SimTime end = profile.horizon + profile.cooldown;
  if (sim.now() != end) {
    r.errors.push_back("soak stopped at " +
                       std::to_string(sim::to_seconds(sim.now())) +
                       " s, before its end");
  }
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  const auto stats = stack.registry().stats();
  for (const auto& s : stats) {
    if (s.checks == 0) r.errors.push_back("invariant " + s.name + " never checked");
    checks += s.checks;
    violations += s.violations;
  }

  const obs::MetricsRegistry& metrics = stack.metrics();
  const NetCounts net = NetCounts::read(metrics);
  r.ops = net.sent;
  r.attempted = checks;
  r.failed = violations;
  r.ok_pct = checks == 0 ? 0.0
                         : 100.0 * static_cast<double>(checks - violations) /
                               static_cast<double>(checks);

  r.counts.emplace_back("run.events", r.window_events);
  r.counts.emplace_back("run.sim_ns",
                        static_cast<std::uint64_t>(sim.now().count()));
  net.add_to(r, NetCounts{});
  r.counts.emplace_back("raft.elections",
                        family_total(metrics, "riot_raft_elections_total"));
  r.counts.emplace_back(
      "raft.leader_changes",
      family_total(metrics, "riot_raft_leader_changes_total"));
  r.counts.emplace_back("swim.suspects",
                        family_total(metrics, "riot_swim_suspect_total"));
  r.counts.emplace_back("swim.refutes",
                        family_total(metrics, "riot_swim_refute_total"));
  r.counts.emplace_back("swim.deads",
                        family_total(metrics, "riot_swim_dead_total"));
  r.counts.emplace_back("mape.iterations",
                        family_total(metrics, "riot_mape_iterations_total"));
  r.counts.emplace_back("mape.violations",
                        family_total(metrics, "riot_mape_violations_total"));
  r.counts.emplace_back("chaos.actions", schedule.actions.size());
  r.counts.emplace_back("chaos.invariant_checks", checks);
  r.counts.emplace_back("chaos.invariant_violations", violations);
  for (const auto& s : stats) {
    r.counts.emplace_back("chaos.checks." + s.name, s.checks);
  }
  r.counts.emplace_back("chaos.trace_hash", report.trace_hash);

  Digest digest;
  for (const auto& [name, value] : r.counts) digest.mix(name, value);
  r.digest = digest.value();
  return r;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (name == name_of(w)) return w;
  }
  return std::nullopt;
}

std::string_view name_of(Workload workload) {
  switch (workload) {
    case Workload::kServeHealthy:
      return "serve-healthy";
    case Workload::kServeFaulted:
      return "serve-faulted";
    case Workload::kChaosSoak:
      break;
  }
  return "chaos-soak";
}

bool is_serving(Workload workload) {
  return workload != Workload::kChaosSoak;
}

std::uint64_t default_seed(Workload workload) {
  return is_serving(workload) ? 42 : kSoakScheduleSeed;
}

std::uint64_t RepResult::count(std::string_view name) const {
  for (const auto& [key, value] : counts) {
    if (key == name) return value;
  }
  return 0;
}

RepResult run_rep(Workload workload, std::uint64_t seed, const Shape& shape,
                  const RepTrace* trace) {
  if (workload == Workload::kChaosSoak) return run_soak(seed, shape, trace);
  return run_serving(workload == Workload::kServeFaulted, seed, shape, trace);
}

}  // namespace riot::perfbench
