// Structured trace log for simulations.
//
// Protocol modules emit TraceEvents (component, node, kind, detail). The
// log is in-memory and queryable, which lets tests assert on causality
// ("suspect precedes dead") without string-scraping stdout, and lets the
// bench harness dump timelines.
//
// Events are built through the fluent API:
//
//   trace.event("swim", "suspect").node(n).span(ctx).kv("incarnation", i);
//
// The builder stamps the bound simulation clock, keeps (component, kind)
// machine-matchable, and emits on destruction. `span()` correlates the
// event with a causal span minted by obs::Tracer (see src/obs/span.hpp),
// so a trace line can be tied back to the root cause that produced it.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace riot::sim {

class Simulation;

enum class TraceLevel : std::uint8_t { kDebug, kInfo, kWarn, kError };

std::string_view to_string(TraceLevel level);

struct TraceEvent {
  SimTime at;
  TraceLevel level;
  std::string component;  // e.g. "swim", "raft", "mape"
  std::uint32_t node;     // originating node id, or kNoNode
  std::string kind;       // machine-matchable tag, e.g. "suspect"
  std::string detail;     // free text / space-separated k=v pairs
  std::uint64_t trace_id = 0;  // causal correlation (obs::Tracer); 0 = none
  std::uint64_t span_id = 0;

  static constexpr std::uint32_t kNoNode = 0xffffffff;
};

class TraceLog {
 public:
  /// Fluent single-event builder; emits into the owning log on
  /// destruction. Obtain via TraceLog::event().
  class EventBuilder {
   public:
    EventBuilder(TraceLog* log, TraceEvent ev)
        : log_(log), ev_(std::move(ev)) {}
    EventBuilder(EventBuilder&& other) noexcept
        : log_(other.log_), ev_(std::move(other.ev_)) {
      other.log_ = nullptr;
    }
    EventBuilder& operator=(EventBuilder&&) = delete;
    EventBuilder(const EventBuilder&) = delete;
    EventBuilder& operator=(const EventBuilder&) = delete;
    ~EventBuilder() {
      if (log_ != nullptr) log_->push(std::move(ev_));
    }

    EventBuilder& level(TraceLevel level) {
      ev_.level = level;
      return *this;
    }
    EventBuilder& debug() { return level(TraceLevel::kDebug); }
    EventBuilder& warn() { return level(TraceLevel::kWarn); }
    EventBuilder& error() { return level(TraceLevel::kError); }

    EventBuilder& node(std::uint32_t node) {
      ev_.node = node;
      return *this;
    }
    /// Override the clock stamp (rare; replaying recorded timelines).
    EventBuilder& at(SimTime at) {
      ev_.at = at;
      return *this;
    }
    /// Free-text detail. kv() appends structured pairs after it.
    EventBuilder& detail(std::string_view text) {
      append(text);
      return *this;
    }
    /// Append a machine-parsable "key=value" pair to the detail.
    EventBuilder& kv(std::string_view key, std::string_view value) {
      append_kv(key, value);
      return *this;
    }
    EventBuilder& kv(std::string_view key, const char* value) {
      append_kv(key, value);
      return *this;
    }
    template <typename T>
      requires std::is_arithmetic_v<T>
    EventBuilder& kv(std::string_view key, T value) {
      append_kv(key, std::to_string(value));
      return *this;
    }
    /// Correlate with a causal span. Accepts anything shaped like
    /// obs::SpanContext ({trace.value, span.value}) without a dependency
    /// on the obs layer.
    template <typename Ctx>
      requires requires(const Ctx& c) {
        { c.trace.value } -> std::convertible_to<std::uint64_t>;
        { c.span.value } -> std::convertible_to<std::uint64_t>;
      }
    EventBuilder& span(const Ctx& ctx) {
      ev_.trace_id = ctx.trace.value;
      ev_.span_id = ctx.span.value;
      return *this;
    }
    EventBuilder& span(std::uint64_t trace_id, std::uint64_t span_id) {
      ev_.trace_id = trace_id;
      ev_.span_id = span_id;
      return *this;
    }

   private:
    void append(std::string_view text) {
      if (!ev_.detail.empty()) ev_.detail += ' ';
      ev_.detail += text;
    }
    void append_kv(std::string_view key, std::string_view value) {
      if (!ev_.detail.empty()) ev_.detail += ' ';
      ev_.detail += key;
      ev_.detail += '=';
      ev_.detail += value;
    }

    TraceLog* log_;
    TraceEvent ev_;
  };

  void set_min_level(TraceLevel level) { min_level_ = level; }
  void set_capacity(std::size_t max_events) { capacity_ = max_events; }

  /// Bind the simulation whose clock stamps fluent events. Unbound logs
  /// stamp kSimTimeZero (override with .at()).
  void bind_clock(const Simulation& simulation) { clock_ = &simulation; }

  /// Start a fluent event at the bound clock's current time.
  [[nodiscard]] EventBuilder event(std::string component, std::string kind);

  void log(SimTime at, TraceLevel level, std::string component,
           std::uint32_t node, std::string kind, std::string detail = {}) {
    push(TraceEvent{at, level, std::move(component), node, std::move(kind),
                    std::move(detail)});
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

  [[nodiscard]] std::vector<TraceEvent> matching(
      const std::function<bool(const TraceEvent&)>& pred) const;

  /// Events with the given component and kind, in order.
  [[nodiscard]] std::vector<TraceEvent> find(std::string_view component,
                                             std::string_view kind) const;

  /// Events correlated with the given causal trace, in order.
  [[nodiscard]] std::vector<TraceEvent> in_trace(std::uint64_t trace_id) const;

  /// First event matching (component, kind) at or after `from`; nullptr if
  /// none.
  [[nodiscard]] const TraceEvent* first_after(std::string_view component,
                                              std::string_view kind,
                                              SimTime from) const;

  [[nodiscard]] std::size_t count(std::string_view component,
                                  std::string_view kind) const;

  void clear() { events_.clear(); }

  void dump(std::ostream& os) const;

 private:
  void push(TraceEvent ev) {
    if (ev.level < min_level_) return;
    if (events_.size() >= capacity_) return;  // saturate, never reallocate storms
    events_.push_back(std::move(ev));
  }

  const Simulation* clock_ = nullptr;
  TraceLevel min_level_ = TraceLevel::kInfo;
  std::size_t capacity_ = 1u << 20;
  std::vector<TraceEvent> events_;
};

}  // namespace riot::sim
