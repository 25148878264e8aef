// Shared table-printing + machine-readable export helpers for the
// figure/table reproduction benches.
//
// Scenario benches are plain executables (they regenerate the paper's
// tables/figures as text); microbenchmarks use google-benchmark. Every
// bench additionally writes a BENCH_<name>.json artifact (schema
// "riot-bench-v1") so results can be diffed and plotted without scraping
// stdout — see DESIGN.md "Observability".
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace riot::bench {

/// Collects a bench run's configuration, headline metrics, and table rows,
/// then writes them as BENCH_<name>.json in the working directory.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), started_(std::chrono::steady_clock::now()) {}

  void config(std::string key, std::string value) {
    config_.emplace_back(std::move(key), std::move(value));
  }
  void config(std::string key, double value) {
    config_num_.emplace_back(std::move(key), value);
  }
  void metric(std::string key, double value) {
    metrics_.emplace_back(std::move(key), value);
  }
  void set_sim_time_s(double seconds) { sim_time_s_ = seconds; }

  /// Table schema + rows (normally fed through Table::tee_to). A bench
  /// with several tables tees them all; each row carries its own column
  /// names, and the top-level "columns" reflect the first table.
  void columns(const std::vector<std::string>& columns) {
    if (columns_.empty()) columns_ = columns;
  }
  void row(const std::vector<std::string>& cells) { row(columns_, cells); }
  void row(const std::vector<std::string>& columns,
           const std::vector<std::string>& cells) {
    std::vector<std::pair<std::string, std::string>> zipped;
    for (std::size_t i = 0; i < cells.size() && i < columns.size(); ++i) {
      zipped.emplace_back(columns[i], cells[i]);
    }
    rows_.push_back(std::move(zipped));
  }

  /// Attach a metrics-registry snapshot (embedded under "registry").
  void snapshot(const obs::MetricsRegistry& registry) {
    registry_json_ = registry.to_json();
  }

  /// Write BENCH_<name>.json. Returns false (and warns) on I/O failure.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("name", name_);
    w.kv("schema", "riot-bench-v1");
    // What the numbers were measured on; the compiler and build type come
    // from bench/CMakeLists.txt.
    w.key("host");
    w.begin_object();
    w.kv("cpus", std::uint64_t{std::thread::hardware_concurrency()});
    w.kv("compiler", RIOT_BENCH_COMPILER);
    w.kv("build_type", RIOT_BENCH_BUILD_TYPE);
    w.end_object();
    w.key("config");
    w.begin_object();
    for (const auto& [k, v] : config_) w.kv(k, v);
    for (const auto& [k, v] : config_num_) w.kv(k, v);
    w.end_object();
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : metrics_) w.kv(k, v);
    w.end_object();
    w.key("columns");
    w.begin_array();
    for (const auto& c : columns_) w.value(c);
    w.end_array();
    w.key("rows");
    w.begin_array();
    for (const auto& cells : rows_) {
      w.begin_object();
      for (const auto& [column, cell] : cells) w.kv(column, cell);
      w.end_object();
    }
    w.end_array();
    w.kv("wall_time_s", wall_s);
    if (sim_time_s_ >= 0.0) w.kv("sim_time_s", sim_time_s_);
    if (!registry_json_.empty()) {
      w.key("registry");
      w.raw(registry_json_);
    }
    w.end_object();
    os << '\n';
    std::printf("\n[bench] wrote %s\n", path.c_str());
    return os.good();
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point started_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, double>> config_num_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  double sim_time_s_ = -1.0;
  std::string registry_json_;
};

/// Fixed-width table printer: header once, then rows. Optionally tees
/// every row into a BenchReport for the JSON artifact.
class Table {
 public:
  explicit Table(std::vector<std::string> columns, int width = 14)
      : columns_(std::move(columns)), width_(width) {}

  /// Mirror the schema and all subsequent rows into `report`.
  void tee_to(BenchReport& report) {
    report_ = &report;
    report.columns(columns_);
  }

  void print_header() const {
    for (const auto& column : columns_) {
      std::printf("%-*s", width_, column.c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%-*s", width_, std::string(width_ - 2, '-').c_str());
    }
    std::printf("\n");
  }

  void print_row(const std::vector<std::string>& cells) const {
    for (const auto& cell : cells) {
      std::printf("%-*s", width_, cell.c_str());
    }
    std::printf("\n");
    if (report_ != nullptr) report_->row(columns_, cells);
  }

 private:
  std::vector<std::string> columns_;
  int width_;
  BenchReport* report_ = nullptr;
};

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

inline void banner(const char* title, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", title, claim);
}

}  // namespace riot::bench
