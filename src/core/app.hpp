// The reference sensing application.
//
// The workload every maturity-grid and figure benchmark runs: sensors
// produce labeled readings at a fixed rate, a processing service consumes
// them (via whichever data plane the maturity level provides), and issues
// actuation commands that must land within a deadline. It is the concrete
// instance of the paper's "data-centric, device-centric and service-
// centric functionalities" whose persistence under disruption we measure.
//
//   SensorNode   --data::Publish-->  (broker | edge relay | processor)
//   ProcessorNode  -- ActuationCommand -->  ActuatorNode
//
// ProcessorNode supports primary/standby replication: replicas all
// receive data, only the active one actuates; a MAPE failover action flips
// the standby to active (self-healing without a central party).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "data/lineage.hpp"
#include "data/pubsub.hpp"
#include "device/registry.hpp"
#include "net/node.hpp"

namespace riot::core {

struct ActuationCommand {
  std::uint64_t cause_item = 0;          // data item that triggered it
  sim::SimTime produced_at = sim::kSimTimeZero;  // when the cause was sensed
  sim::SimTime issued_at = sim::kSimTimeZero;    // when the processor decided
  double value = 0.0;
};

/// Periodically produces labeled readings and publishes them to a
/// configurable target (broker node, epidemic relay, or a processor
/// directly in the ML1 silo).
class SensorNode : public net::Node {
 public:
  struct Config {
    std::string topic = "readings";
    data::DataCategory category = data::DataCategory::kTelemetry;
    double rate_hz = 1.0;
    device::DeviceId self_device;
  };

  SensorNode(net::Network& network, Config config);

  void set_target(net::NodeId target) { target_ = target; }
  /// Optional secondary target — ML4 sensors publish to both their edge
  /// and gateway relay so either can serve the site.
  void set_secondary_target(std::optional<net::NodeId> target) {
    secondary_target_ = target;
  }
  void set_lineage(data::LineageGraph* lineage) { lineage_ = lineage; }

  [[nodiscard]] std::uint64_t produced() const { return produced_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 protected:
  void on_start() override;
  void on_recover() override;

 private:
  void produce();

  Config cfg_;
  net::NodeId target_;
  std::optional<net::NodeId> secondary_target_;
  data::LineageGraph* lineage_ = nullptr;
  std::uint64_t produced_ = 0;
  std::uint64_t next_item_ = 1;
};

/// Consumes readings, tracks freshness, and actuates. One replica is
/// active at a time; standbys shadow the stream so failover is warm.
class ProcessorNode : public net::Node {
 public:
  struct Config {
    std::string name = "processor";
    std::string topic = "readings";
    device::DeviceId self_device;
    net::NodeId actuator;
    bool active = true;
  };

  ProcessorNode(net::Network& network, Config config);

  /// Broker-plane mode: subscribe through a central broker.
  void use_broker(net::NodeId broker);

  /// Any-plane entry point: feed an item directly (epidemic subscribe
  /// callback, or tests).
  void handle_item(const data::DataItem& item);

  void set_active(bool active);
  [[nodiscard]] bool active() const { return cfg_.active; }
  void set_lineage(data::LineageGraph* lineage) { lineage_ = lineage; }

  [[nodiscard]] std::uint64_t items_processed() const { return processed_; }
  [[nodiscard]] std::uint64_t actuations_issued() const { return actuated_; }
  /// Age of the newest reading (by production time); nullopt before any.
  [[nodiscard]] std::optional<sim::SimTime> data_age() const;
  [[nodiscard]] const std::string& name() const { return cfg_.name; }

 protected:
  void on_start() override;
  void on_recover() override;

 private:
  void subscribe();

  Config cfg_;
  std::optional<net::NodeId> broker_;
  data::FreshnessTracker freshness_;
  data::LineageGraph* lineage_ = nullptr;
  std::uint64_t processed_ = 0;
  std::uint64_t actuated_ = 0;
  std::uint64_t next_derived_item_ = 1;
};

/// Receives actuation commands and records end-to-end latency (sensor
/// production -> actuation arrival) against the deadline.
class ActuatorNode : public net::Node {
 public:
  struct Config {
    device::DeviceId self_device;
    sim::SimTime deadline = sim::millis(250);
  };

  ActuatorNode(net::Network& network, Config config);

  [[nodiscard]] std::uint64_t actuations() const { return actuations_; }
  [[nodiscard]] sim::SimTime last_actuation_at() const { return last_at_; }
  [[nodiscard]] double deadline_ratio() const {
    return actuations_ == 0 ? 0.0
                            : static_cast<double>(deadline_met_) /
                                  static_cast<double>(actuations_);
  }
  /// Deadline ratio over the most recent `window_size` actuations.
  [[nodiscard]] double recent_deadline_ratio(std::size_t window_size =
                                                 16) const;
  [[nodiscard]] const sim::Histogram& latency() const { return latency_; }

 private:
  Config cfg_;
  std::uint64_t actuations_ = 0;
  std::uint64_t deadline_met_ = 0;
  sim::SimTime last_at_ = sim::kSimTimeZero;
  sim::Histogram latency_;
  std::vector<bool> recent_;  // ring of recent deadline outcomes
  std::size_t recent_pos_ = 0;
};

}  // namespace riot::core
