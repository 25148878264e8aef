#include "sim/chaos.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>

namespace riot::sim::chaos {

std::string_view to_string(ActionKind kind) {
  switch (kind) {
    case ActionKind::kCrash: return "crash";
    case ActionKind::kPartition: return "partition";
    case ActionKind::kIsolate: return "isolate";
    case ActionKind::kLoss: return "loss";
    case ActionKind::kDelay: return "delay";
    case ActionKind::kDuplicate: return "duplicate";
    case ActionKind::kClockSkew: return "clock_skew";
    case ActionKind::kFalsify: return "falsify";
    case ActionKind::kSelectiveDrop: return "selective_drop";
    case ActionKind::kDelayInflate: return "delay_inflate";
    case ActionKind::kFlipFlop: return "flip_flop";
  }
  return "unknown";
}

std::optional<ActionKind> action_kind_from(std::string_view name) {
  for (const ActionKind kind : kAllActionKinds) {
    if (to_string(kind) == name) return kind;
  }
  return std::nullopt;
}

// --- Generation ------------------------------------------------------------

namespace {

bool intervals_overlap(SimTime a_start, SimTime a_end, SimTime b_start,
                       SimTime b_end) {
  return a_start < b_end && b_start < a_end;
}

struct Window {
  std::uint32_t node;  // 0xffffffff for global windows
  SimTime start;
  SimTime end;
};

bool conflicts(const std::vector<Window>& family, std::uint32_t node,
               SimTime start, SimTime end) {
  for (const Window& w : family) {
    if ((w.node == node || w.node == 0xffffffffu || node == 0xffffffffu) &&
        intervals_overlap(w.start, w.end, start, end)) {
      return true;
    }
  }
  return false;
}

/// Distinct nodes whose down-windows overlap [start, end).
std::size_t overlapping_down_nodes(const std::vector<Window>& down,
                                   SimTime start, SimTime end) {
  std::vector<std::uint32_t> nodes;
  for (const Window& w : down) {
    if (intervals_overlap(w.start, w.end, start, end) &&
        std::find(nodes.begin(), nodes.end(), w.node) == nodes.end()) {
      nodes.push_back(w.node);
    }
  }
  return nodes.size();
}

}  // namespace

ChaosSchedule generate_schedule(std::uint64_t seed,
                                const ChaosProfile& profile) {
  ChaosSchedule schedule;
  schedule.seed = seed;
  schedule.node_count = profile.node_count;
  schedule.horizon = profile.horizon;
  if (profile.node_count == 0 || profile.horizon <= profile.warmup) {
    return schedule;
  }

  Rng rng(seed);
  // Byzantine weights default to 0, so appending them keeps weighted_index
  // draws — and therefore whole schedules — bit-identical for pre-existing
  // profiles and seeds.
  const std::vector<double> weights = {
      profile.crash_weight,     profile.partition_weight,
      profile.isolate_weight,   profile.loss_weight,
      profile.delay_weight,     profile.duplicate_weight,
      profile.skew_weight,      profile.falsify_weight,
      profile.selective_drop_weight, profile.delay_inflate_weight,
      profile.flip_flop_weight};
  const std::size_t count =
      profile.min_actions +
      rng.below(profile.max_actions - profile.min_actions + 1);

  // Same-family windows never overlap, so a revert can never undo a state
  // another window still claims; `down` additionally caps how many nodes
  // are crashed/isolated at once (keeps quorums electable).
  std::vector<Window> down;        // crash + isolate, per node
  std::vector<Window> topology;    // partition + isolate (heal clears both)
  std::vector<Window> loss, delay, duplicate;  // global knobs, per kind
  std::vector<Window> skew;        // per node
  std::vector<Window> byzantine;   // falsify/drop/inflate/flip-flop, per node
  constexpr std::uint32_t kGlobal = 0xffffffffu;

  const SimTime span = profile.horizon - profile.warmup;
  for (std::size_t made = 0; made < count; ++made) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const ActionKind kind = kAllActionKinds[rng.weighted_index(weights)];
      const SimTime at =
          profile.warmup +
          nanos(static_cast<std::int64_t>(
              rng.below(static_cast<std::uint64_t>(span.count()))));
      SimTime duration =
          profile.min_duration +
          nanos(static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(
              std::max<std::int64_t>(
                  1, (profile.max_duration - profile.min_duration).count())))));
      duration = std::min(duration, profile.horizon - at);
      if (duration <= kSimTimeZero) continue;
      const SimTime end = at + duration;

      ChaosAction action{kind, at, duration, {}, 0.0};
      bool ok = false;
      switch (kind) {
        case ActionKind::kCrash: {
          const auto node =
              static_cast<std::uint32_t>(rng.below(profile.node_count));
          if (conflicts(down, node, at, end)) break;
          if (profile.max_concurrent_down > 0 &&
              overlapping_down_nodes(down, at, end) + 1 >
                  profile.max_concurrent_down) {
            break;
          }
          action.targets = {node};
          down.push_back({node, at, end});
          ok = true;
          break;
        }
        case ActionKind::kIsolate: {
          const auto node =
              static_cast<std::uint32_t>(rng.below(profile.node_count));
          if (conflicts(down, node, at, end) ||
              conflicts(topology, kGlobal, at, end)) {
            break;
          }
          if (profile.max_concurrent_down > 0 &&
              overlapping_down_nodes(down, at, end) + 1 >
                  profile.max_concurrent_down) {
            break;
          }
          action.targets = {node};
          down.push_back({node, at, end});
          topology.push_back({kGlobal, at, end});
          ok = true;
          break;
        }
        case ActionKind::kPartition: {
          if (profile.node_count < 2) break;
          if (conflicts(topology, kGlobal, at, end)) break;
          const std::size_t group_size =
              1 + rng.below(profile.node_count - 1);
          const auto picked =
              rng.sample_indices(profile.node_count, group_size);
          for (const std::size_t idx : picked) {
            action.targets.push_back(static_cast<std::uint32_t>(idx));
          }
          std::sort(action.targets.begin(), action.targets.end());
          topology.push_back({kGlobal, at, end});
          ok = true;
          break;
        }
        case ActionKind::kLoss: {
          if (profile.max_loss <= 0.0) break;
          if (conflicts(loss, kGlobal, at, end)) break;
          action.magnitude = rng.uniform(0.1, profile.max_loss);
          loss.push_back({kGlobal, at, end});
          ok = true;
          break;
        }
        case ActionKind::kDelay: {
          if (profile.max_delay_factor <= profile.min_delay_factor) break;
          if (conflicts(delay, kGlobal, at, end)) break;
          action.magnitude =
              rng.uniform(profile.min_delay_factor, profile.max_delay_factor);
          delay.push_back({kGlobal, at, end});
          ok = true;
          break;
        }
        case ActionKind::kDuplicate: {
          if (profile.max_duplicate <= 0.0) break;
          if (conflicts(duplicate, kGlobal, at, end)) break;
          action.magnitude = rng.uniform(0.05, profile.max_duplicate);
          duplicate.push_back({kGlobal, at, end});
          ok = true;
          break;
        }
        case ActionKind::kClockSkew: {
          if (profile.max_skew_seconds <= 0.0) break;
          const auto node =
              static_cast<std::uint32_t>(rng.below(profile.node_count));
          if (conflicts(skew, node, at, end)) break;
          action.targets = {node};
          action.magnitude = rng.uniform(0.05, profile.max_skew_seconds);
          skew.push_back({node, at, end});
          ok = true;
          break;
        }
        // All four Byzantine kinds share one per-node window family: a
        // node misbehaves in at most one way at a time, so a revert never
        // clears an adversarial knob another window still owns.
        case ActionKind::kFalsify:
        case ActionKind::kSelectiveDrop:
        case ActionKind::kFlipFlop: {
          if (profile.max_adversary_prob <= 0.0) break;
          const auto node =
              static_cast<std::uint32_t>(rng.below(profile.node_count));
          if (conflicts(byzantine, node, at, end)) break;
          action.targets = {node};
          action.magnitude = rng.uniform(0.25, profile.max_adversary_prob);
          byzantine.push_back({node, at, end});
          ok = true;
          break;
        }
        case ActionKind::kDelayInflate: {
          if (profile.max_delay_factor <= profile.min_delay_factor) break;
          const auto node =
              static_cast<std::uint32_t>(rng.below(profile.node_count));
          if (conflicts(byzantine, node, at, end)) break;
          action.targets = {node};
          action.magnitude =
              rng.uniform(profile.min_delay_factor, profile.max_delay_factor);
          byzantine.push_back({node, at, end});
          ok = true;
          break;
        }
      }
      if (ok) {
        schedule.actions.push_back(std::move(action));
        break;
      }
    }
  }

  std::stable_sort(schedule.actions.begin(), schedule.actions.end(),
                   [](const ChaosAction& a, const ChaosAction& b) {
                     return a.at < b.at;
                   });
  return schedule;
}

// --- Serialization ---------------------------------------------------------

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string schedule_to_json(const ChaosSchedule& schedule) {
  std::string out;
  out += "{\"format\":\"riot-chaos-v1\",\"seed\":";
  out += std::to_string(schedule.seed);
  out += ",\"node_count\":";
  out += std::to_string(schedule.node_count);
  out += ",\"horizon_ns\":";
  out += std::to_string(schedule.horizon.count());
  out += ",\"actions\":[";
  bool first = true;
  for (const ChaosAction& a : schedule.actions) {
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":\"";
    out += to_string(a.kind);
    out += "\",\"at_ns\":";
    out += std::to_string(a.at.count());
    out += ",\"duration_ns\":";
    out += std::to_string(a.duration.count());
    out += ",\"targets\":[";
    for (std::size_t i = 0; i < a.targets.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(a.targets[i]);
    }
    out += "],\"magnitude\":";
    append_double(out, a.magnitude);
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

/// Minimal recursive-descent JSON reader, scoped to what riot-chaos-v1
/// artifacts contain (objects, arrays, strings without exotic escapes,
/// numbers, literals). Unknown values are skipped structurally.
class JsonReader {
 public:
  explicit JsonReader(std::string_view src) : src_(src) {}

  bool fail(std::string message) {
    if (error_.empty()) {
      error_ = std::move(message);
      error_ += " at offset ";
      error_ += std::to_string(pos_);
    }
    return false;
  }
  /// fail() reporting offset `at`, where the offending value starts.
  bool fail_at(std::size_t at, std::string message) {
    pos_ = at;
    return fail(std::move(message));
  }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }

  void skip_ws() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
  }
  bool expect(char c) {
    skip_ws();
    if (pos_ >= src_.size() || src_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }
  bool peek_is(char c) {
    skip_ws();
    return pos_ < src_.size() && src_[pos_] == c;
  }
  bool consume_if(char c) {
    if (!peek_is(c)) return false;
    ++pos_;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (pos_ < src_.size() && src_[pos_] != '"') {
      char c = src_[pos_++];
      if (c == '\\') {
        if (pos_ >= src_.size()) return fail("bad escape");
        const char esc = src_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          default: return fail("unsupported escape");
        }
      }
      out += c;
    }
    if (pos_ >= src_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  /// The raw token of a number; parse_count and parse_double interpret it.
  bool parse_number_token(std::string& out) {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '-' || src_[pos_] == '+' || src_[pos_] == '.' ||
            src_[pos_] == 'e' || src_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    out.assign(src_.substr(start, pos_ - start));
    return true;
  }

  bool skip_value() {
    skip_ws();
    if (pos_ >= src_.size()) return fail("unexpected end");
    const char c = src_[pos_];
    if (c == '"') {
      std::string sink;
      return parse_string(sink);
    }
    if (c == '{') {
      ++pos_;
      if (consume_if('}')) return true;
      do {
        std::string key;
        if (!parse_string(key) || !expect(':') || !skip_value()) return false;
      } while (consume_if(','));
      return expect('}');
    }
    if (c == '[') {
      ++pos_;
      if (consume_if(']')) return true;
      do {
        if (!skip_value()) return false;
      } while (consume_if(','));
      return expect(']');
    }
    if (c == 't' || c == 'f' || c == 'n') {  // true / false / null
      while (pos_ < src_.size() &&
             std::isalpha(static_cast<unsigned char>(src_[pos_]))) {
        ++pos_;
      }
      return true;
    }
    std::string sink;
    return parse_number_token(sink);
  }

  /// An integer field in [0, max], written as plain digits: a sign, a
  /// fraction, an exponent or a larger value is an error naming `field`,
  /// never a silently truncated or wrapped number.
  bool parse_count(std::string_view field, std::uint64_t& out,
                   std::uint64_t max = UINT64_MAX) {
    skip_ws();
    const std::size_t start = pos_;
    std::string tok;
    if (!parse_number_token(tok)) return false;
    const char* const end = tok.data() + tok.size();
    const auto [stop, ec] = std::from_chars(tok.data(), end, out);
    if (ec != std::errc{} || stop != end || out > max) {
      return fail_at(start, std::string(field) +
                                ": expected an integer in [0, " +
                                std::to_string(max) + "], got " + tok);
    }
    return true;
  }
  bool parse_nanos(std::string_view field, SimTime& out) {
    std::uint64_t v = 0;
    if (!parse_count(field, v, INT64_MAX)) return false;
    out = nanos(static_cast<std::int64_t>(v));
    return true;
  }
  /// A finite number, the whole token: "1e999", "-" and "1.2.3" are errors
  /// naming `field`. Exponent form is legal; schedule_to_json writes %.17g.
  bool parse_real(std::string_view field, double& out) {
    skip_ws();
    const std::size_t start = pos_;
    std::string tok;
    if (!parse_number_token(tok)) return false;
    const char* const end = tok.data() + tok.size();
    const auto [stop, ec] = std::from_chars(tok.data(), end, out);
    if (ec != std::errc{} || stop != end || !std::isfinite(out)) {
      return fail_at(start, std::string(field) +
                                ": expected a finite number, got " + tok);
    }
    return true;
  }

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// A latency factor (delay, delay_inflate) is healthy at 1 and must not be
/// negative; a probability (loss, duplicate, falsify, selective_drop,
/// flip_flop) lies in [0, 1]. Checked once the action is whole, since its
/// kind may follow its magnitude.
bool check_magnitude(JsonReader& r, const ChaosAction& action,
                     std::size_t at) {
  const double m = action.magnitude;
  const char* expected = nullptr;
  switch (action.kind) {
    case ActionKind::kDelay:
    case ActionKind::kDelayInflate:
      if (m < 0.0) expected = "a factor >= 0";
      break;
    case ActionKind::kLoss:
    case ActionKind::kDuplicate:
    case ActionKind::kFalsify:
    case ActionKind::kSelectiveDrop:
    case ActionKind::kFlipFlop:
      if (m < 0.0 || m > 1.0) expected = "a probability in [0, 1]";
      break;
    default:
      break;
  }
  if (expected == nullptr) return true;
  std::string got;
  append_double(got, m);
  return r.fail_at(at, std::string("magnitude: expected ") + expected +
                           " for " + std::string(to_string(action.kind)) +
                           ", got " + got);
}

bool parse_action(JsonReader& r, ChaosAction& action) {
  if (!r.expect('{')) return false;
  if (r.consume_if('}')) return true;
  std::size_t magnitude_at = r.pos();
  do {
    std::string key;
    if (!r.parse_string(key) || !r.expect(':')) return false;
    if (key == "kind") {
      std::string kind;
      if (!r.parse_string(kind)) return false;
      const auto parsed = action_kind_from(kind);
      if (!parsed) return r.fail("unknown action kind '" + kind + "'");
      action.kind = *parsed;
    } else if (key == "at_ns") {
      if (!r.parse_nanos("at_ns", action.at)) return false;
    } else if (key == "duration_ns") {
      if (!r.parse_nanos("duration_ns", action.duration)) return false;
    } else if (key == "targets") {
      if (!r.expect('[')) return false;
      if (!r.consume_if(']')) {
        do {
          std::uint64_t v = 0;
          if (!r.parse_count("targets", v, UINT32_MAX)) return false;
          action.targets.push_back(static_cast<std::uint32_t>(v));
        } while (r.consume_if(','));
        if (!r.expect(']')) return false;
      }
    } else if (key == "magnitude") {
      r.skip_ws();
      magnitude_at = r.pos();
      if (!r.parse_real("magnitude", action.magnitude)) return false;
    } else {
      if (!r.skip_value()) return false;
    }
  } while (r.consume_if(','));
  return r.expect('}') && check_magnitude(r, action, magnitude_at);
}

}  // namespace

std::optional<ChaosSchedule> schedule_from_json(std::string_view json,
                                                std::string* error) {
  JsonReader r(json);
  ChaosSchedule schedule;
  bool saw_actions = false;
  auto bail = [&]() -> std::optional<ChaosSchedule> {
    if (error != nullptr) *error = r.error();
    return std::nullopt;
  };
  if (!r.expect('{')) return bail();
  if (!r.consume_if('}')) {
    do {
      std::string key;
      if (!r.parse_string(key) || !r.expect(':')) return bail();
      if (key == "seed") {
        if (!r.parse_count("seed", schedule.seed)) return bail();
      } else if (key == "node_count") {
        std::uint64_t v = 0;
        if (!r.parse_count("node_count", v, SIZE_MAX)) return bail();
        schedule.node_count = static_cast<std::size_t>(v);
      } else if (key == "horizon_ns") {
        if (!r.parse_nanos("horizon_ns", schedule.horizon)) return bail();
      } else if (key == "actions") {
        saw_actions = true;
        if (!r.expect('[')) return bail();
        if (!r.consume_if(']')) {
          do {
            ChaosAction action;
            if (!parse_action(r, action)) return bail();
            schedule.actions.push_back(std::move(action));
          } while (r.consume_if(','));
          if (!r.expect(']')) return bail();
        }
      } else {
        if (!r.skip_value()) return bail();  // format, metadata, ...
      }
    } while (r.consume_if(','));
    if (!r.expect('}')) return bail();
  }
  if (!saw_actions) {
    r.fail("missing 'actions' array");
    return bail();
  }
  return schedule;
}

// --- Execution -------------------------------------------------------------

namespace {

/// One window install_schedule planned: the knob it holds, which is its
/// kind on its node (0 for global kinds), and what it sets the knob to.
/// A flip-flop plans one kFalsify window per on-phase.
struct PlannedWindow {
  ActionKind kind;
  std::uint32_t node;
  double magnitude;
  std::size_t knob = 0;              // index in InstalledWindows::knobs
  std::vector<std::uint32_t> group;  // kPartition only
};

/// A knob some planned window holds, and the windows open on it.
struct Knob {
  ActionKind kind;
  std::uint32_t node;
  std::vector<std::size_t> open;  // oldest first

  [[nodiscard]] std::pair<ActionKind, std::uint32_t> key() const {
    return {kind, node};
  }
};

/// The one owner of a schedule's window state. Every knob (node 3's crash,
/// the global loss probability, node 1's falsify probability, ...) keeps
/// the windows open on it, oldest first. open() applies a window; close()
/// drops it and hands the knob to the newest window still open on it, or
/// back to healthy when none is. So overlapping or handcrafted windows
/// never double-apply a crash or heal a disruption another window still
/// holds: a node stays down until its last crash window ends, and an inner
/// loss or partition window ending restores the outer window's magnitude
/// or layout.
struct InstalledWindows {
  explicit InstalledWindows(ChaosHooks hooks) : hooks(std::move(hooks)) {}

  void open(std::size_t w) {
    const PlannedWindow& window = windows[w];
    std::vector<std::size_t>& on = knobs[window.knob].open;
    on.push_back(w);
    switch (window.kind) {
      case ActionKind::kCrash:
        if (on.size() == 1) hooks.crash_node(window.node);
        break;
      case ActionKind::kIsolate:
        if (on.size() == 1) hooks.isolate(window.node);
        break;
      case ActionKind::kPartition:
        hooks.partition(window.group);  // the newest layout wins
        break;
      default:
        set_knob(window, window.magnitude);
        break;
    }
  }

  void close(std::size_t w) {
    const PlannedWindow& window = windows[w];
    std::vector<std::size_t>& on = knobs[window.knob].open;
    on.erase(std::find(on.begin(), on.end(), w));
    const PlannedWindow* newest = on.empty() ? nullptr : &windows[on.back()];
    switch (window.kind) {
      case ActionKind::kCrash:
        if (newest == nullptr && hooks.restart_node) {
          hooks.restart_node(window.node);
        }
        break;
      case ActionKind::kIsolate:
        if (newest == nullptr && hooks.unisolate) hooks.unisolate(window.node);
        break;
      case ActionKind::kPartition:
        if (newest != nullptr) {
          hooks.partition(newest->group);
          break;
        }
        if (hooks.heal) hooks.heal();
        // A heal typically resets *all* topology state, including
        // isolation owned by still-open isolate windows: re-assert it.
        if (hooks.isolate) {
          for (const Knob& knob : knobs) {
            if (knob.kind == ActionKind::kIsolate && !knob.open.empty()) {
              hooks.isolate(knob.node);
            }
          }
        }
        break;
      default: {
        // Latency factors are healthy at 1, probabilities and skew at 0.
        const bool factor = window.kind == ActionKind::kDelay ||
                            window.kind == ActionKind::kDelayInflate;
        set_knob(window, newest != nullptr ? newest->magnitude
                                           : (factor ? 1.0 : 0.0));
        break;
      }
    }
  }

  void set_knob(const PlannedWindow& window, double value) {
    switch (window.kind) {
      case ActionKind::kLoss: hooks.ambient_loss(value); break;
      case ActionKind::kDelay: hooks.latency_factor(value); break;
      case ActionKind::kDuplicate: hooks.duplicate(value); break;
      case ActionKind::kClockSkew:
        hooks.clock_skew(window.node, seconds_f(value));
        break;
      case ActionKind::kFalsify: hooks.falsify(window.node, value); break;
      case ActionKind::kSelectiveDrop:
        hooks.selective_drop(window.node, value);
        break;
      case ActionKind::kDelayInflate:
        hooks.delay_inflate(window.node, value);
        break;
      default: break;
    }
  }

  ChaosHooks hooks;
  std::vector<PlannedWindow> windows;
  // Sorted by key, so the isolate knobs a heal re-asserts come by node.
  // One per knob a window holds: the table grows with the schedule, never
  // with its node_count.
  std::vector<Knob> knobs;
};

/// Whether the scenario bound the hook that applies `kind`.
bool is_bound(const ChaosHooks& hooks, ActionKind kind) {
  switch (kind) {
    case ActionKind::kCrash: return static_cast<bool>(hooks.crash_node);
    case ActionKind::kPartition: return static_cast<bool>(hooks.partition);
    case ActionKind::kIsolate: return static_cast<bool>(hooks.isolate);
    case ActionKind::kLoss: return static_cast<bool>(hooks.ambient_loss);
    case ActionKind::kDelay: return static_cast<bool>(hooks.latency_factor);
    case ActionKind::kDuplicate: return static_cast<bool>(hooks.duplicate);
    case ActionKind::kClockSkew: return static_cast<bool>(hooks.clock_skew);
    case ActionKind::kFalsify:
    case ActionKind::kFlipFlop: return static_cast<bool>(hooks.falsify);
    case ActionKind::kSelectiveDrop:
      return static_cast<bool>(hooks.selective_drop);
    case ActionKind::kDelayInflate:
      return static_cast<bool>(hooks.delay_inflate);
  }
  return false;
}

std::string action_name(const ChaosAction& action) {
  std::string name = "chaos/";
  name += to_string(action.kind);
  for (const std::uint32_t t : action.targets) {
    name += ' ';
    name += 'n';
    name += std::to_string(t);
  }
  if (action.magnitude != 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " x%.3g", action.magnitude);
    name += buf;
  }
  return name;
}

}  // namespace

std::size_t install_schedule(const ChaosSchedule& schedule,
                             FaultInjector& injector, ChaosHooks hooks) {
  const std::size_t nodes = std::max<std::size_t>(schedule.node_count, 1);
  auto state = std::make_shared<InstalledWindows>(std::move(hooks));
  std::vector<Knob>& knobs = state->knobs;
  knobs.reserve(schedule.actions.size());
  // Plans window `window` over [start, start + length): its apply opens it
  // and its revert closes it.
  const auto plan = [&](const std::string& name, SimTime start,
                        SimTime length, const PlannedWindow& window,
                        int revert_phase) {
    const std::size_t w = state->windows.size();
    state->windows.push_back(window);
    injector.plan(PlannedFault{
        start, length,
        Disruption{name, [state, w] { state->open(w); },
                   [state, w] { state->close(w); }, revert_phase}});
  };

  std::size_t installed = 0;
  for (const ChaosAction& action : schedule.actions) {
    const bool global_knob = action.kind == ActionKind::kLoss ||
                             action.kind == ActionKind::kDelay ||
                             action.kind == ActionKind::kDuplicate;
    // A kind whose hook is unbound is not modelled by this scenario.
    if (!is_bound(state->hooks, action.kind) ||
        (!global_knob && action.targets.empty())) {
      continue;
    }
    const bool per_node = !global_knob && action.kind != ActionKind::kPartition;
    const auto node =
        per_node ? static_cast<std::uint32_t>(action.targets[0] % nodes) : 0u;
    // The on-windows of a flip-flop hold the node's falsify knob like
    // plain falsify windows do, so the two compose.
    const ActionKind kind = action.kind == ActionKind::kFlipFlop
                                ? ActionKind::kFalsify
                                : action.kind;
    knobs.push_back(Knob{kind, node, {}});
    PlannedWindow window{kind, node, action.magnitude, 0, {}};
    if (action.kind == ActionKind::kPartition) window.group = action.targets;
    const std::string name = action_name(action);
    if (action.kind == ActionKind::kFlipFlop) {
      // Alternating falsify-on windows (bad for one phase, honest for the
      // next, three on-phases per action); durations too short to slice
      // degrade to one solid falsify window.
      const SimTime phase = action.duration / 6;
      if (phase > kSimTimeZero) {
        plan(name, action.at, phase, window, 0);
        plan(name, action.at + 2 * phase, phase, window, 0);
        plan(name, action.at + 4 * phase, action.duration - 5 * phase, window,
             0);
      } else {
        plan(name, action.at, action.duration, window, 0);
      }
    } else {
      // Topology and knob reverts run before node restarts landing on the
      // same instant (FaultInjector drains same-instant reverts in phase
      // order), so a restarted node never sends into a stale layout.
      plan(name, action.at, action.duration, window,
           action.kind == ActionKind::kCrash ? 1 : 0);
    }
    ++installed;
  }
  // One knob per key; each window finds its own by binary search.
  const auto by_key = [](const Knob& a, const Knob& b) {
    return a.key() < b.key();
  };
  std::sort(knobs.begin(), knobs.end(), by_key);
  knobs.erase(std::unique(knobs.begin(), knobs.end(),
                          [](const Knob& a, const Knob& b) {
                            return a.key() == b.key();
                          }),
              knobs.end());
  for (PlannedWindow& window : state->windows) {
    const Knob key{window.kind, window.node, {}};
    window.knob = static_cast<std::size_t>(
        std::lower_bound(knobs.begin(), knobs.end(), key, by_key) -
        knobs.begin());
  }
  return installed;
}

// --- Invariants ------------------------------------------------------------

void InvariantRegistry::add_always(std::string name, CheckFn check) {
  entries_.push_back(Entry{std::move(name), true, std::move(check)});
}

void InvariantRegistry::add_eventually(std::string name, CheckFn check) {
  entries_.push_back(Entry{std::move(name), false, std::move(check)});
}

std::size_t InvariantRegistry::run(bool include_eventually, SimTime now,
                                   std::vector<InvariantViolation>& out) const {
  std::size_t added = 0;
  for (const Entry& entry : entries_) {
    if (!entry.always && !include_eventually) continue;
    const bool already =
        std::any_of(out.begin(), out.end(), [&](const InvariantViolation& v) {
          return v.invariant == entry.name;
        });
    if (already) continue;
    ++entry.checks;
    if (auto message = entry.check()) {
      ++entry.violations;
      out.push_back(InvariantViolation{entry.name, std::move(*message), now});
      ++added;
    }
  }
  return added;
}

std::vector<InvariantStats> InvariantRegistry::stats() const {
  std::vector<InvariantStats> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back(
        InvariantStats{entry.name, entry.always, entry.checks,
                       entry.violations});
  }
  return out;
}

std::size_t InvariantRegistry::check_now(
    SimTime now, std::vector<InvariantViolation>& out) const {
  return run(/*include_eventually=*/false, now, out);
}

std::size_t InvariantRegistry::check_final(
    SimTime now, std::vector<InvariantViolation>& out) const {
  return run(/*include_eventually=*/true, now, out);
}

// --- Exploration and shrinking ---------------------------------------------

std::uint64_t ChaosExplorer::iteration_seed(std::uint64_t base_seed,
                                            std::size_t iteration) {
  std::uint64_t state =
      base_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(iteration);
  return splitmix64(state);
}

ExploreResult ChaosExplorer::explore(std::uint64_t base_seed,
                                     std::size_t iterations,
                                     bool shrink_on_failure) {
  ExploreResult result;
  for (std::size_t i = 0; i < iterations; ++i) {
    const std::uint64_t seed = iteration_seed(base_seed, i);
    ChaosSchedule schedule = generate_schedule(seed, profile_);
    ChaosRunReport report = run_(schedule);
    ++result.iterations;
    if (!report.failed()) continue;

    ChaosFailure failure;
    failure.seed = seed;
    failure.iteration = i;
    failure.schedule = schedule;
    failure.violations = report.violations;
    if (shrink_on_failure) {
      failure.shrunk = shrink(schedule);
    } else {
      failure.shrunk =
          ShrinkResult{std::move(schedule), report.violations, 0};
    }
    result.failure = std::move(failure);
    return result;
  }
  return result;
}

ChaosRunReport ChaosExplorer::replay(std::uint64_t seed) {
  return run_(generate_schedule(seed, profile_));
}

ShrinkResult ChaosExplorer::shrink(const ChaosSchedule& failing,
                                   std::size_t max_runs) {
  ShrinkResult result;
  result.schedule = failing;

  auto fails = [&](const ChaosSchedule& candidate)
      -> std::optional<std::vector<InvariantViolation>> {
    if (result.runs >= max_runs) return std::nullopt;
    ++result.runs;
    ChaosRunReport report = run_(candidate);
    if (report.failed()) return std::move(report.violations);
    return std::nullopt;
  };

  // Establish (and capture the violations of) the starting point.
  if (auto violations = fails(result.schedule)) {
    result.violations = std::move(*violations);
  } else {
    return result;  // could not reproduce; hand the schedule back untouched
  }

  // ddmin over the action list: remove chunks at increasing granularity as
  // long as the remainder still violates an invariant.
  std::size_t granularity = 2;
  while (result.schedule.actions.size() >= 2 && result.runs < max_runs) {
    const std::size_t size = result.schedule.actions.size();
    granularity = std::min(granularity, size);
    const std::size_t chunk = (size + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t i = 0; i < granularity && !reduced; ++i) {
      const std::size_t lo = i * chunk;
      const std::size_t hi = std::min(lo + chunk, size);
      if (lo >= hi || hi - lo == size) continue;
      ChaosSchedule candidate = result.schedule;
      candidate.actions.erase(candidate.actions.begin() + lo,
                              candidate.actions.begin() + hi);
      if (auto violations = fails(candidate)) {
        result.schedule = std::move(candidate);
        result.violations = std::move(*violations);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
      }
    }
    if (!reduced) {
      if (granularity >= size) break;
      granularity = std::min(size, granularity * 2);
    }
  }

  // Simplification: soften each surviving action while the failure holds.
  bool changed = true;
  while (changed && result.runs < max_runs) {
    changed = false;
    for (std::size_t i = 0;
         i < result.schedule.actions.size() && result.runs < max_runs; ++i) {
      std::vector<ChaosAction> variants;
      const ChaosAction& action = result.schedule.actions[i];
      if (action.duration > millis(200)) {
        ChaosAction v = action;
        v.duration = action.duration / 2;
        variants.push_back(std::move(v));
      }
      if (action.kind == ActionKind::kPartition && action.targets.size() > 1) {
        ChaosAction v = action;
        v.targets.pop_back();
        variants.push_back(std::move(v));
      }
      if ((action.kind == ActionKind::kLoss ||
           action.kind == ActionKind::kDuplicate ||
           action.kind == ActionKind::kClockSkew ||
           action.kind == ActionKind::kFalsify ||
           action.kind == ActionKind::kSelectiveDrop ||
           action.kind == ActionKind::kFlipFlop) &&
          action.magnitude > 0.02) {
        ChaosAction v = action;
        v.magnitude = action.magnitude / 2;
        variants.push_back(std::move(v));
      }
      if ((action.kind == ActionKind::kDelay ||
           action.kind == ActionKind::kDelayInflate) &&
          action.magnitude > 1.25) {
        ChaosAction v = action;
        v.magnitude = 1.0 + (action.magnitude - 1.0) / 2;
        variants.push_back(std::move(v));
      }
      for (ChaosAction& variant : variants) {
        if (result.runs >= max_runs) break;
        ChaosSchedule candidate = result.schedule;
        candidate.actions[i] = std::move(variant);
        if (auto violations = fails(candidate)) {
          result.schedule = std::move(candidate);
          result.violations = std::move(*violations);
          changed = true;
          break;
        }
      }
    }
  }
  return result;
}

std::string ChaosFailure::summary() const {
  std::ostringstream os;
  os << "chaos failure: seed=" << seed << " iteration=" << iteration
     << " actions=" << schedule.actions.size() << " violated [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << "; ";
    os << violations[i].invariant << ": " << violations[i].message;
  }
  os << "] — replay with ChaosExplorer::replay(" << seed << "u); shrunk to "
     << shrunk.schedule.actions.size()
     << " action(s): " << schedule_to_json(shrunk.schedule);
  return os.str();
}

// --- Utilities -------------------------------------------------------------

std::uint64_t trace_hash(const TraceLog& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(v >> (i * 8)));
  };
  auto mix_str = [&](std::string_view s) {
    for (const char c : s) mix_byte(static_cast<unsigned char>(c));
    mix_byte(0xff);
  };
  for (const TraceEvent& ev : trace.events()) {
    mix_u64(static_cast<std::uint64_t>(ev.at.count()));
    mix_byte(static_cast<unsigned char>(ev.level));
    mix_str(ev.component);
    mix_u64(ev.node);
    mix_str(ev.kind);
    mix_str(ev.detail);
    mix_u64(ev.trace_id);
    mix_u64(ev.span_id);
  }
  return h;
}

std::optional<std::uint64_t> parse_detail_u64(std::string_view detail,
                                              std::string_view key) {
  std::size_t pos = 0;
  while (pos < detail.size()) {
    const std::size_t hit = detail.find(key, pos);
    if (hit == std::string_view::npos) return std::nullopt;
    const bool at_token_start = hit == 0 || detail[hit - 1] == ' ';
    const std::size_t eq = hit + key.size();
    if (at_token_start && eq < detail.size() && detail[eq] == '=') {
      std::uint64_t value = 0;
      std::size_t i = eq + 1;
      if (i >= detail.size() ||
          !std::isdigit(static_cast<unsigned char>(detail[i]))) {
        return std::nullopt;
      }
      for (; i < detail.size() &&
             std::isdigit(static_cast<unsigned char>(detail[i]));
           ++i) {
        value = value * 10 + static_cast<std::uint64_t>(detail[i] - '0');
      }
      return value;
    }
    pos = hit + 1;
  }
  return std::nullopt;
}

}  // namespace riot::sim::chaos
