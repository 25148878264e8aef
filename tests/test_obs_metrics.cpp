#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "sim/simulation.hpp"

namespace riot::obs {
namespace {

TEST(MetricFamily, LabelOrderIsNormalized) {
  MetricFamily<sim::Counter> family;
  family.with({{"a", "1"}, {"b", "2"}}).increment(3);
  family.with({{"b", "2"}, {"a", "1"}}).increment(4);
  EXPECT_EQ(family.children().size(), 1u);
  const sim::Counter* counter = family.find({{"b", "2"}, {"a", "1"}});
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 7u);
  EXPECT_EQ(family.find({{"a", "other"}}), nullptr);
}

TEST(MetricFamily, HandlesAreStableAcrossGrowth) {
  MetricFamily<sim::Counter> family;
  sim::Counter& first = family.with({{"node", "0"}});
  for (int i = 1; i < 200; ++i) {
    family.with({{"node", std::to_string(i)}});
  }
  first.increment(9);  // the reference must still point at child 0
  EXPECT_EQ(family.find({{"node", "0"}})->value(), 9u);
  EXPECT_EQ(family.children().size(), 200u);
}

TEST(MetricsRegistry, RejectsInvalidNames) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_THROW(registry.counter("net.sent"), std::invalid_argument);
  EXPECT_THROW(registry.counter("bad name"), std::invalid_argument);
  EXPECT_NO_THROW(registry.counter("riot_net_sent_total"));
  EXPECT_NO_THROW(registry.counter("ns:scoped_metric"));
}

TEST(MetricsRegistry, UnlabeledSugarIsTheEmptyLabelChild) {
  MetricsRegistry registry;
  registry.counter("riot_x_total").increment(5);
  EXPECT_EQ(registry.counter_value("riot_x_total"), 5u);
  EXPECT_EQ(registry.counter_value("riot_x_total", {}), 5u);
  EXPECT_EQ(registry.counter_value("missing_total"), 0u);
  EXPECT_EQ(registry.counter_value("riot_x_total", {{"no", "such"}}), 0u);
}

TEST(MetricsRegistry, HelpIsSetOnceAndKept) {
  MetricsRegistry registry;
  registry.counter_family("riot_x_total", "first help");
  registry.counter_family("riot_x_total", "second help");
  EXPECT_EQ(registry.counter_family("riot_x_total").help(), "first help");
}

TEST(MetricsRegistry, ReportListsEveryInstrument) {
  MetricsRegistry registry;
  registry.counter("riot_net_sent_total").increment(42);
  registry.histogram("riot_net_latency_us").record(100.0);
  const std::string report = registry.report();
  EXPECT_NE(report.find("riot_net_sent_total"), std::string::npos);
  EXPECT_NE(report.find("42"), std::string::npos);
  EXPECT_NE(report.find("riot_net_latency_us"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter_family("riot_net_dropped_total", "dropped messages")
      .with({{"reason", "loss"}})
      .increment(3);
  registry.gauge("riot_fleet_up").set(7.0);
  registry.histogram("riot_net_latency_us").record(1000.0);
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# HELP riot_net_dropped_total dropped messages"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE riot_net_dropped_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("riot_net_dropped_total{reason=\"loss\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE riot_fleet_up gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE riot_net_latency_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("riot_net_latency_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("riot_net_latency_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("riot_net_latency_us_sum 1000"), std::string::npos);
}

TEST(MetricsRegistry, JsonSnapshotShape) {
  MetricsRegistry registry;
  registry.counter_family("riot_net_dropped_total")
      .with({{"reason", "partition"}})
      .increment(2);
  registry.histogram("riot_net_latency_us").record(5.0);
  registry.series("riot_sla").sample(sim::seconds(1), 0.5);
  const std::string json = registry.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(
      json.find("{\"name\":\"riot_net_dropped_total\",\"labels\":"
                "{\"reason\":\"partition\"},\"value\":2}"),
      std::string::npos);
  EXPECT_NE(json.find("\"histograms\":["), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"series\":["), std::string::npos);
}

TEST(JsonWriter, EscapesAndCommas) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.kv("text", "line\n\"quoted\"\\");
  json.key("list");
  json.begin_array();
  json.value(1);
  json.value(2.5);
  json.value(true);
  json.null();
  json.end_array();
  json.kv("nan", std::nan(""));
  json.end_object();
  EXPECT_EQ(os.str(),
            "{\"text\":\"line\\n\\\"quoted\\\"\\\\\","
            "\"list\":[1,2.5,true,null],\"nan\":null}");
}

// Busy-waits `ns` nanoseconds of wall time: a handler with a known floor.
void spin_for(std::int64_t ns) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(SimProfiler, CountsEventsAndLatencyPerComponent) {
  sim::Simulation sim(1);
  SimProfiler profiler(sim);
  profiler.install();
  const auto swim = sim.component_id("swim");
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(sim::millis(i), [&fired] {
      ++fired;
      spin_for(2'000);
    }, swim);
  }
  sim.schedule_at(sim::millis(50), [&fired] { ++fired; });  // anonymous
  sim.run_to_completion();
  EXPECT_EQ(fired, 11);

  // Uninstalled: recording stops, what was recorded stays.
  profiler.uninstall();
  EXPECT_EQ(sim.profiler(), nullptr);
  sim.schedule_at(sim.now() + sim::millis(1), [&fired] { ++fired; }, swim);
  sim.run_to_completion();
  EXPECT_EQ(fired, 12);
  EXPECT_EQ(profiler.total_events(), 11u);

  MetricsRegistry registry;
  profiler.export_metrics(registry);
  EXPECT_EQ(registry.counter_value("riot_sim_events_total",
                                   {{"component", "swim"}}),
            10u);
  EXPECT_EQ(registry.counter_value("riot_sim_events_total",
                                   {{"component", "sim"}}),
            1u);
  // Whole nanoseconds: ten 2 µs handlers sum to at least 20 µs.
  EXPECT_GE(registry.counter_value("riot_sim_handler_wall_ns_total",
                                   {{"component", "swim"}}),
            20'000u);
}

}  // namespace
}  // namespace riot::obs
