#include "layer_trace.hpp"

#include <cstdio>

#include "alloc_count.hpp"

namespace riot::perfbench {

void LayerProfiler::attach(sim::Simulation& sim) {
  detach();
  sim_ = &sim;
  by_id_.assign(sim.component_count(), ComponentRow{});
  alloc_mark_ = heap_allocs();
  sim.set_profiler(this);
}

void LayerProfiler::detach() {
  if (sim_ == nullptr) return;
  if (sim_->profiler() == this) sim_->set_profiler(nullptr);
  for (std::size_t id = 0; id < by_id_.size(); ++id) {
    const ComponentRow& row = by_id_[id];
    if (row.events == 0) continue;
    ComponentRow& total = rows_[std::string(
        sim_->component_name(static_cast<sim::ComponentId>(id)))];
    total.events += row.events;
    total.handler_ns += row.handler_ns;
    total.allocs += row.allocs;
  }
  by_id_.clear();
  sim_ = nullptr;
}

void LayerProfiler::on_event(sim::ComponentId component, sim::SimTime /*at*/,
                             double wall_micros) {
  const std::uint64_t allocs = heap_allocs();
  if (component >= by_id_.size()) by_id_.resize(component + 1);
  ComponentRow& row = by_id_[component];
  ++row.events;
  row.handler_ns += wall_micros * 1e3;
  row.allocs += allocs - alloc_mark_;
  alloc_mark_ = allocs;
}

SpanLog::SpanLog() : origin_(Clock::now()) { spans_.reserve(8192); }

std::uint32_t SpanLog::add(const char* name, std::uint32_t rep,
                           std::uint32_t parent, Clock::time_point start,
                           Clock::time_point end) {
  spans_.push_back(Span{name, rep, parent, start, end});
  return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t SpanLog::open(const char* name, std::uint32_t rep,
                            std::uint32_t parent) {
  const auto now = Clock::now();
  return add(name, rep, parent, now, now);
}

void SpanLog::close(std::uint32_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end = Clock::now();
}

std::string SpanLog::to_json() const {
  auto ns = [this](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  };
  std::string out = "{\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"id\":%zu,\"parent\":%u,\"rep\":%u,\"name\":\"%s\","
                  "\"start_ns\":%lld,\"end_ns\":%lld}",
                  i == 0 ? "" : ",", i + 1, s.parent, s.rep, s.name,
                  ns(s.start), ns(s.end));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace riot::perfbench
