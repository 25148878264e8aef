// Handle-based metrics registry with labeled families and exporters.
//
// API contract: names and labels are resolved ONCE at wiring time —
// constructors grab `Counter&`/`Gauge&`/`Histogram&` handles and hot paths
// touch only those references. References are stable for the registry's
// lifetime (map-node storage), so a handle outlives any rehash. The
// string-lookup read side (counter_value etc.) exists for tests and
// exporters, never for per-event recording.
//
// Naming convention: `riot_<component>_<name>` with Prometheus-style
// suffixes (`_total` for counters, `_us` for microsecond histograms).
// Labeled families carry per-node / per-component / per-reason breakdowns:
//
//   Counter& dropped = registry.counter_family("riot_net_dropped_total")
//                          .with({{"reason", "loss"}});
//
// Exporters: to_prometheus() emits the text exposition format;
// write_json() the JSON equivalent embedded in BENCH_*.json artifacts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"

namespace riot::obs {

/// Label set for one family child, e.g. {{"reason","loss"}}. Order is
/// normalized internally, so {{a,1},{b,2}} and {{b,2},{a,1}} are the same
/// child.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One named family of metrics sharing a name and label keys; children are
/// distinguished by label values. The unlabeled registry accessors are
/// sugar for the family's `{}` child.
template <typename T>
class MetricFamily {
 public:
  struct Child {
    Labels labels;
    T metric;
  };

  MetricFamily() = default;

  /// Resolve (creating on demand) the child with these labels. The
  /// returned reference is stable; resolve at wiring time and keep it.
  T& with(Labels labels) {
    std::sort(labels.begin(), labels.end());
    auto [it, inserted] = children_.try_emplace(flatten(labels));
    if (inserted) it->second.labels = std::move(labels);
    return it->second.metric;
  }

  [[nodiscard]] const T* find(Labels labels) const {
    std::sort(labels.begin(), labels.end());
    auto it = children_.find(flatten(labels));
    return it == children_.end() ? nullptr : &it->second.metric;
  }

  [[nodiscard]] const std::map<std::string, Child>& children() const {
    return children_;
  }
  [[nodiscard]] const std::string& help() const { return help_; }
  void set_help(std::string help) { help_ = std::move(help); }

 private:
  static std::string flatten(const Labels& labels) {
    std::string key;
    for (const auto& [k, v] : labels) {
      key += k;
      key += '\x1f';
      key += v;
      key += '\x1e';
    }
    return key;
  }

  std::string help_;
  std::map<std::string, Child> children_;
};

class MetricsRegistry {
 public:
  using Counter = sim::Counter;
  using Gauge = sim::Gauge;
  using Histogram = sim::Histogram;
  using TimeSeries = sim::TimeSeries;

  // --- Handle resolution (wiring time) ------------------------------------

  Counter& counter(const std::string& name) {
    return counter_family(name).with({});
  }
  Gauge& gauge(const std::string& name) { return gauge_family(name).with({}); }
  Histogram& histogram(const std::string& name) {
    return histogram_family(name).with({});
  }
  TimeSeries& series(const std::string& name) { return series_[name]; }

  MetricFamily<Counter>& counter_family(const std::string& name,
                                        std::string_view help = {});
  MetricFamily<Gauge>& gauge_family(const std::string& name,
                                    std::string_view help = {});
  MetricFamily<Histogram>& histogram_family(const std::string& name,
                                            std::string_view help = {});

  // --- Read side (tests and exporters; never per-event) -------------------

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            Labels labels) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name,
                                                Labels labels = {}) const;

  [[nodiscard]] const std::map<std::string, MetricFamily<Counter>>& counters()
      const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, MetricFamily<Histogram>>&
  histograms() const {
    return histograms_;
  }

  // --- Exporters -----------------------------------------------------------

  /// Multi-line human-readable dump (bench harness stdout).
  [[nodiscard]] std::string report() const;
  /// Prometheus text exposition format (counters, gauges; histograms as
  /// quantile summaries).
  [[nodiscard]] std::string to_prometheus() const;
  /// JSON snapshot of every instrument (embedded in BENCH_*.json).
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

 private:
  static void check_name(const std::string& name);

  std::map<std::string, MetricFamily<Counter>> counters_;
  std::map<std::string, MetricFamily<Gauge>> gauges_;
  std::map<std::string, MetricFamily<Histogram>> histograms_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace riot::obs
