// Measurement helpers: percentiles with a tail-sample rule, medians, the
// 64-bit outcome digest, and the host record.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace riot::perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly above its rank; below that it would describe a handful of
/// requests, not the tail.
inline constexpr std::size_t kMinTailSamples = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // population size
  std::size_t beyond = 0;   // samples ranked above the reported one
};

/// Nearest-rank q-quantile (0 < q < 1) of `sorted` (ascending). Returns
/// nullopt when fewer than kMinTailSamples samples rank above it.
[[nodiscard]] std::optional<Percentile> percentile(
    const std::vector<double>& sorted, double q);

/// Median of `values` (mean of the middle two for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

/// FNV-1a over named 64-bit values: the digest of a run's simulated
/// outcome. Printed as 16 hex digits because a JSON double cannot carry
/// all 64 bits.
class Digest {
 public:
  void mix(std::string_view name, std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void mix_byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string to_hex(std::uint64_t value);

/// Wall-clock seconds since `start`.
[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Wall seconds of one fixed reference job that no repository code runs:
/// heap, hash-map and small-allocation work like the simulator's inner
/// loop, then random updates over a 32 MiB table. On a shared host its
/// time rises and falls with the host's momentary speed, so dividing a
/// measurement by it removes most of that drift. Deterministic work; its
/// first call also allocates the table, outside the timed part.
[[nodiscard]] double reference_job_s();

/// The reference job's nominal duration: a host on which it takes this
/// long is the "reference host" that normalized figures are expressed in.
inline constexpr double kReferenceJobS = 0.1;

/// What a result was measured on. `optimized` is false when the compiler
/// ran without optimization, which makes every timing meaningless.
struct HostRecord {
  unsigned cpus = 0;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
  std::string commit;
};

/// `compiler`, `build_type` and `commit` come from the build and the
/// caller; cpus and optimization are read from the running binary.
[[nodiscard]] HostRecord host_record(std::string compiler,
                                     std::string build_type,
                                     std::string commit);

}  // namespace riot::perfbench
