#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

namespace riot::perfbench {

std::optional<Percentile> percentile(const std::vector<double>& sorted,
                                     double q) {
  const std::size_t n = sorted.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  const std::size_t beyond = n - 1 - index;
  if (beyond < kMinTailSamples) return std::nullopt;
  return Percentile{sorted[index], n, beyond};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Digest::mix(std::string_view name, std::uint64_t value) {
  for (const char c : name) mix_byte(static_cast<std::uint8_t>(c));
  mix_byte(0);  // separator: ("ab", x) never collides with ("a", "b"...)
  for (int i = 0; i < 8; ++i) {
    mix_byte(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

std::string to_hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {
// Where the reference job's result goes, so the work cannot be elided.
volatile std::uint64_t g_reference_sink = 0;
}  // namespace

double reference_job_s() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 22, 1);
  const auto started = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t acc = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  heap.reserve(8192);
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::vector<std::unique_ptr<std::array<char, 48>>> pool(4096);
  for (std::uint32_t i = 0; i < 400000; ++i) {
    const std::uint64_t r = next();
    heap.emplace_back(r >> 20, i);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    if (heap.size() > 4096) {
      acc += heap.front().second;
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
    }
    map[r & 0x7fff] += i;
    auto& slot = pool[r & 4095];
    slot = std::make_unique<std::array<char, 48>>();
    (*slot)[0] = static_cast<char>(i);
  }
  const std::uint64_t mask = table.size() - 1;
  for (std::uint32_t i = 0; i < 2000000; ++i) acc += table[next() & mask]++;
  g_reference_sink = acc + map.size();
  return seconds_since(started);
}

HostRecord host_record(std::string compiler, std::string build_type,
                       std::string commit) {
  HostRecord host;
  host.cpus = std::thread::hardware_concurrency();
  host.compiler = std::move(compiler);
  host.build_type = std::move(build_type);
#ifdef __OPTIMIZE__
  host.optimized = true;
#endif
  host.commit = std::move(commit);
  return host;
}

}  // namespace riot::perfbench
