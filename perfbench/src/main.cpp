// riot_perfbench: one workload, measured end to end or traced by layer.
//
//   riot_perfbench --workload serve-healthy|serve-faulted|chaos-soak
//                  [--seed N] [--seconds S] [--trace 0|1]
//                  [--commit SHA] [--report-dir DIR]
//
// Repeats the workload (fresh objects, same seed) until --seconds of wall
// time have passed and at least three repetitions ran, with a fixed
// reference job between repetitions. Host-speed metrics are medians over
// repetitions, expressed on the reference host (see reference_job_s);
// simulated metrics come from the first repetition and every repetition
// must reproduce its digest. With --trace 1, repetitions
// alternate untraced and traced, and the per-layer metrics come from the
// traced ones. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status is 0 only when the correctness gate passed.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "layer_trace.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace riot::perfbench {
namespace {

struct Args {
  Workload workload = Workload::kServeHealthy;
  std::optional<std::uint64_t> seed;
  double seconds = 30.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string report_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) {
        std::fprintf(stderr, "unknown workload: %s\n", value);
        return false;
      }
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--report-dir") {
      args.report_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "--workload is required\n");
  return have_workload;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           json_number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double pct(double num, double den) { return 100.0 * ratio(num, den); }

/// What one repetition contributes beyond the first rep's full result.
struct RepSummary {
  bool traced = false;
  double setup_s = 0.0;
  double speed = 0.0;  // sim-s per wall-s of the timed window
  // The same two figures on the reference host (see reference_job_s).
  double ref_setup_s = 0.0;
  double ref_speed = 0.0;
  double window_wall_s = 0.0;
  double allocs_per_op = 0.0;
  double allocs_per_sim_s = 0.0;
  std::uint64_t window_events = 0;
  IssueCost issue;
};

constexpr const char* kComponents[] = {"sim",  "net",   "serving", "client-bank",
                                       "raft", "swim",  "gossip",  "mape"};

/// Sums over the traced repetitions' timed windows. Kernel self time is
/// the part of the window no handler accounts for.
struct TracedTotals {
  double wall_ns = 0.0;
  double events = 0.0;
  double handler_ns = 0.0;
  IssueCost issue;

  [[nodiscard]] double self_ns() const { return wall_ns - handler_ns; }
};

TracedTotals traced_totals(const std::vector<RepSummary>& reps,
                           const LayerProfiler& profiler) {
  TracedTotals t;
  for (const RepSummary& rep : reps) {
    if (!rep.traced) continue;
    t.wall_ns += rep.window_wall_s * 1e9;
    t.events += static_cast<double>(rep.window_events);
    t.issue.calls += rep.issue.calls;
    t.issue.ns += rep.issue.ns;
    t.issue.allocs += rep.issue.allocs;
  }
  for (const auto& [name, row] : profiler.rows()) t.handler_ns += row.handler_ns;
  return t;
}

/// Per-layer metrics. Counts come from the first repetition (all agree);
/// times and allocation attribution from the traced repetitions.
std::vector<Metric> per_layer(const RepResult& first, const TracedTotals& t,
                              const LayerProfiler& profiler,
                              double overhead_pct) {
  const auto c = [&first](const char* name) {
    return static_cast<double>(first.count(name));
  };
  const double ops = static_cast<double>(first.ops);
  const double traced_wall_ns = t.wall_ns;
  const double traced_events = t.events;
  const double self_ns = t.self_ns();
  std::vector<Metric> m;

  m.push_back({"sim.events_per_request",
               ratio(static_cast<double>(first.window_events), ops), "count"});
  m.push_back({"sim.events_per_sim_s",
               ratio(static_cast<double>(first.window_events),
                     first.window_sim_s),
               "1/s"});
  m.push_back({"sim.self_ns_per_event", ratio(self_ns, traced_events), "ns"});
  m.push_back({"sim.self_pct", pct(self_ns, traced_wall_ns), "%"});
  for (const char* comp : kComponents) {
    const auto it = profiler.rows().find(comp);
    const ComponentRow row =
        it == profiler.rows().end() ? ComponentRow{} : it->second;
    const std::string p = std::string("component.") + comp;
    const double events = static_cast<double>(row.events);
    m.push_back({p + ".events_pct", pct(events, traced_events), "%"});
    m.push_back({p + ".wall_pct", pct(row.handler_ns, traced_wall_ns), "%"});
    m.push_back({p + ".allocs_per_event",
                 ratio(static_cast<double>(row.allocs), events), "count"});
    // Handler cost in ns only for the components every workload runs; a
    // component a workload never runs has no cost to report.
    if (std::strcmp(comp, "sim") == 0 || std::strcmp(comp, "net") == 0) {
      m.push_back({p + ".ns_per_event", ratio(row.handler_ns, events), "ns"});
    }
  }

  const double sent = c("net.sent");
  m.push_back({"net.msgs_per_request", ratio(sent, ops), "count"});
  m.push_back({"net.msgs_per_sim_s", ratio(sent, first.window_sim_s), "1/s"});
  m.push_back({"net.bytes_per_msg", ratio(c("net.bytes"), sent), "B"});
  m.push_back({"net.delivered_pct", pct(c("net.delivered"), sent), "%"});
  m.push_back({"net.dropped", c("net.dropped"), "count"});
  m.push_back({"net.duplicated", c("net.duplicated"), "count"});

  const double calls = c("rpc.calls");
  m.push_back({"rpc.calls_per_request", ratio(calls, c("run.requests")),
               "count"});
  m.push_back({"rpc.attempts_per_call", ratio(c("rpc.attempts"), calls),
               "count"});
  m.push_back({"rpc.ok_pct", pct(c("rpc.completed_ok"), calls), "%"});
  for (const char* name :
       {"rpc.timeouts", "rpc.retries", "rpc.failed_fast", "rpc.dedup_hits",
        "rpc.inflight_suppressed", "rpc.stale_responses", "rpc.shed",
        "rpc.breaker_opens"}) {
    m.push_back({name, c(name), "count"});
  }
  m.push_back({"rpc.issue_allocs",
               ratio(static_cast<double>(t.issue.allocs),
                     static_cast<double>(t.issue.calls)),
               "count"});

  for (const char* tier : {"gateway", "edge", "cloud"}) {
    const std::string a = std::string("admission.") + tier;
    const std::string s = std::string("serving.") + tier;
    m.push_back({a + ".offered", c((a + ".offered").c_str()), "count"});
    m.push_back({a + ".served_pct",
                 pct(c((a + ".served").c_str()), c((a + ".offered").c_str())),
                 "%"});
    m.push_back({a + ".shed_full", c((a + ".shed_full").c_str()), "count"});
    m.push_back(
        {a + ".shed_expired", c((a + ".shed_expired").c_str()), "count"});
    m.push_back({a + ".queue_high_water",
                 c((a + ".queue_high_water").c_str()), "count"});
    m.push_back({s + ".forwarded", c((s + ".forwarded").c_str()), "count"});
    m.push_back({s + ".downstream_failed",
                 c((s + ".downstream_failed").c_str()), "count"});
  }
  m.push_back({"workload.candidates_per_arrival",
               ratio(c("workload.candidates"), c("workload.arrivals")),
               "count"});

  for (const char* name :
       {"raft.elections", "raft.leader_changes", "swim.suspects",
        "swim.refutes", "swim.deads", "mape.iterations", "mape.violations",
        "chaos.actions", "chaos.invariant_checks"}) {
    m.push_back({name, c(name), "count"});
  }
  m.push_back({"trace.overhead_pct", overhead_pct, "%"});
  return m;
}

void print_layer_table(const LayerProfiler& profiler, const TracedTotals& t) {
  std::printf("\n%-14s %10s %9s %9s %11s %13s\n", "component", "events",
              "events%", "wall%", "ns/event", "allocs/event");
  for (const auto& [name, row] : profiler.rows()) {
    const double ev = static_cast<double>(row.events);
    std::printf("%-14s %10.0f %9.2f %9.2f %11.1f %13.3f\n", name.c_str(), ev,
                pct(ev, t.events), pct(row.handler_ns, t.wall_ns),
                ratio(row.handler_ns, ev),
                ratio(static_cast<double>(row.allocs), ev));
  }
  std::printf("%-14s %10.0f %9s %9.2f %11.1f %13s\n", "(kernel self)",
              t.events, "", pct(t.self_ns(), t.wall_ns),
              ratio(t.self_ns(), t.events), "");
  if (t.issue.calls != 0) {
    const double calls = static_cast<double>(t.issue.calls);
    std::printf("rpc.issue: %" PRIu64 " calls, %.1f ns and %.3f allocs each\n",
                t.issue.calls, t.issue.ns / calls,
                static_cast<double>(t.issue.allocs) / calls);
  }
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int run(const Args& args) {
  const Workload workload = args.workload;
  const std::uint64_t seed = args.seed.value_or(default_seed(workload));
  const std::string wname(name_of(workload));
  const HostRecord host =
      host_record(PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.commit);
  std::printf("# workload=%s seed=%" PRIu64 " trace=%d seconds=%g\n",
              wname.c_str(), seed, args.trace ? 1 : 0, args.seconds);
  std::printf("# host cpus=%u compiler=\"%s\" build=%s optimized=%s "
              "commit=%s\n",
              host.cpus, host.compiler.c_str(), host.build_type.c_str(),
              host.optimized ? "yes" : "NO", host.commit.c_str());
  if (!host.optimized) {
    std::printf("# WARNING: UNOPTIMIZED BUILD - every timing below is "
                "meaningless\n");
    std::fprintf(stderr, "WARNING: UNOPTIMIZED BUILD\n");
  }

  const Shape shape;
  LayerProfiler profiler;
  SpanLog spans;
  std::optional<RepResult> first;
  double first_rep_rss_mb = 0.0;
  std::vector<double> ref_after;  // reference job after each repetition
  std::vector<RepSummary> reps;
  std::vector<std::string> errors;
  constexpr std::size_t kMinReps = 3;
  constexpr std::size_t kMaxReps = 60;
  const auto began = std::chrono::steady_clock::now();
  for (std::uint32_t rep = 0; rep < kMaxReps; ++rep) {
    // Traced runs alternate untraced (even) and traced (odd) repetitions
    // so the tracing overhead is measured inside one process.
    const bool traced = args.trace && rep % 2 == 1;
    const RepTrace instruments{.profiler = &profiler,
                               .spans = &spans,
                               .rep = rep};
    RepResult r = run_rep(workload, seed, shape, traced ? &instruments : nullptr);
    for (const std::string& e : r.errors) {
      errors.push_back("rep " + std::to_string(rep) + ": " + e);
    }
    if (first && r.digest != first->digest) {
      errors.push_back("rep " + std::to_string(rep) + " digest " +
                       to_hex(r.digest) + " != rep 0 digest " +
                       to_hex(first->digest));
    }
    RepSummary s{.traced = traced,
                 .setup_s = r.setup_s,
                 .speed = ratio(r.window_sim_s, r.window_wall_s),
                 .window_wall_s = r.window_wall_s,
                 .allocs_per_op = ratio(static_cast<double>(r.window_allocs),
                                        static_cast<double>(r.ops)),
                 .allocs_per_sim_s =
                     ratio(static_cast<double>(r.window_allocs), r.window_sim_s),
                 .window_events = r.window_events,
                 .issue = r.issue};
    if (!first) {
      // Later repetitions add allocator fragmentation from the earlier
      // ones, so the peak of a process that ran the workload once is read
      // here, before the reference job's table exists too.
      first_rep_rss_mb = peak_rss_mb();
    }
    ref_after.push_back(reference_job_s());
    std::printf("# rep %u%s setup_s=%.4f window_s=%.4f sim_s_per_wall_s=%.4f "
                "reference_job_s=%.4f allocs=%.4f/op digest=%s\n",
                rep, traced ? " (traced)" : "", s.setup_s, s.window_wall_s,
                s.speed, ref_after.back(), s.allocs_per_op,
                to_hex(r.digest).c_str());
    std::fflush(stdout);
    reps.push_back(s);
    if (!first) first = std::move(r);
    const std::size_t need = args.trace ? 2 * kMinReps : kMinReps;
    if (reps.size() >= need &&
        seconds_since(began) >= args.seconds) {
      break;
    }
  }
  // A repetition's host speed is read from the reference jobs on either
  // side of it (only after it for the first).
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const double ref =
        k == 0 ? ref_after[0] : 0.5 * (ref_after[k - 1] + ref_after[k]);
    reps[k].ref_speed = reps[k].speed * ref / kReferenceJobS;
    reps[k].ref_setup_s = reps[k].setup_s * kReferenceJobS / ref;
  }

  auto median_of = [&reps](bool traced, double RepSummary::*field) {
    std::vector<double> v;
    for (const RepSummary& s : reps) {
      if (s.traced == traced) v.push_back(s.*field);
    }
    return median(std::move(v));
  };
  const double ref_speed = median_of(false, &RepSummary::ref_speed);

  // serve-*: latency over the window's requests, from scheduled arrival.
  std::optional<Percentile> p50;
  std::optional<Percentile> p9999;
  double slo_pct = 0.0;
  if (is_serving(workload)) {
    p50 = percentile(first->latencies_ms, 0.5);
    p9999 = percentile(first->latencies_ms, 0.9999);
    slo_pct = pct(static_cast<double>(first->ok_within_slo),
                  static_cast<double>(first->attempted));
    if (!p9999) {
      errors.push_back("too few requests for p99.99: " +
                       std::to_string(first->latencies_ms.size()));
    }
  }

  const bool correct = errors.empty();
  if (!correct) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "perfbench: %s seed %" PRIu64 ": %s\n",
                   wname.c_str(), seed, e.c_str());
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"sim_s_per_ref_s", ref_speed, "s/s"},
        {"setup_s", median_of(false, &RepSummary::ref_setup_s), "s"},
        {"peak_rss_mb", first_rep_rss_mb, "MB"},
        {"allocs_per_request", median_of(false, &RepSummary::allocs_per_op),
         "count"},
        {"allocs_per_sim_s", median_of(false, &RepSummary::allocs_per_sim_s),
         "1/s"},
        {"ok_pct", first->ok_pct, "%"},
    };
  } else {
    const double traced_speed = median_of(true, &RepSummary::ref_speed);
    const TracedTotals totals = traced_totals(reps, profiler);
    metrics = per_layer(*first, totals, profiler,
                        100.0 * (ratio(ref_speed, traced_speed) - 1.0));
    print_layer_table(profiler, totals);
  }

  std::printf("\n# digest %s seed=%" PRIu64 " %s\n", wname.c_str(), seed,
              to_hex(first->digest).c_str());
  // The raw wall-clock figures, before reference-host normalization.
  std::printf("# sim_s_per_wall_s %.4f s/s\n# setup_wall_s %.4f s\n",
              median_of(false, &RepSummary::speed),
              median_of(false, &RepSummary::setup_s));
  if (is_serving(workload)) {
    std::printf("# slo_pct %.4f %%  (%" PRIu64 " of %" PRIu64
                " requests ok within 250 ms)\n",
                slo_pct, first->ok_within_slo, first->attempted);
    if (p50) std::printf("# p50_ms %.4f ms\n", p50->value);
    if (p9999) {
      std::printf("# p9999_ms %.4f ms  (%zu samples, %zu beyond)\n",
                  p9999->value, p9999->samples, p9999->beyond);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }

  if (!args.report_dir.empty()) {
    const std::string stem = args.report_dir + "/" + wname + "-seed" +
                             std::to_string(seed) +
                             (args.trace ? "-trace" : "");
    std::string report = "{\"workload\":\"" + wname +
                         "\",\"seed\":" + std::to_string(seed) +
                         ",\"digest\":\"" + to_hex(first->digest) +
                         "\",\"correct\":" + (correct ? "true" : "false") +
                         ",\"host\":{\"cpus\":" + std::to_string(host.cpus) +
                         ",\"compiler\":\"" + host.compiler +
                         "\",\"build_type\":\"" + host.build_type +
                         "\",\"optimized\":" +
                         (host.optimized ? "true" : "false") +
                         ",\"commit\":\"" + host.commit + "\"}";
    if (is_serving(workload)) {
      report += ",\"serving\":{\"slo_pct\":" + json_number(slo_pct);
      if (p50) report += ",\"p50_ms\":" + json_number(p50->value);
      if (p9999) {
        report += ",\"p9999_ms\":" + json_number(p9999->value) +
                  ",\"p9999_samples\":" + std::to_string(p9999->samples) +
                  ",\"p9999_beyond\":" + std::to_string(p9999->beyond);
      }
      report += "}";
    }
    report += ",\"counts\":{";
    for (std::size_t i = 0; i < first->counts.size(); ++i) {
      report += (i == 0 ? "\"" : ",\"") + first->counts[i].first +
                "\":" + std::to_string(first->counts[i].second);
    }
    report += "},\"metrics\":" + metrics_json(metrics) + "}\n";
    if (!write_file(stem + ".json", report) ||
        (args.trace && !write_file(stem + ".spans.json", spans.to_json()))) {
      std::fprintf(stderr, "perfbench: cannot write %s.*\n", stem.c_str());
    }
  }

  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":%s}\n",
              correct ? "true" : "false", first->attempted,
              correct ? first->failed : std::max<std::uint64_t>(first->failed, 1),
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace riot::perfbench

int main(int argc, char** argv) {
  riot::perfbench::Args args;
  if (!riot::perfbench::parse_args(argc, argv, args)) return 2;
  return riot::perfbench::run(args);
}
