#include "sim/rng.hpp"

#include <cmath>
#include <numbers>

namespace riot::sim {

double Rng::exponential(double mean) {
  // Inverse-CDF; clamp u away from 0 to avoid log(0).
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation, adequate for workload generation.
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  std::uint64_t count = 0;
  double product = uniform01();
  while (product > limit) {
    ++count;
    product *= uniform01();
  }
  return count;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) return weights.empty() ? 0 : below(weights.size());
  double point = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (point < w) return i;
    point -= w;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  if (k > n) k = n;
  // Partial Fisher–Yates over the virtual array idx[p] = p, with the same
  // below() draws as swapping a materialized one. Step i swaps idx[i] with
  // idx[j], j >= i; position i is final after that, so only the value
  // moved to j must be remembered. Those live in an open-addressing table
  // (position + 1 -> value, 0 = empty, at most half full) behind the k
  // results in the same allocation: O(k) expected work instead of
  // building all n indices to return k (a gossip round draws 2 of 199).
  std::size_t slots = 4;
  while (slots < 2 * k) slots *= 2;
  std::vector<std::size_t> out(k + 2 * slots);
  std::size_t* const table = out.data() + k;
  // The slot holding `pos`, or the empty slot where it would go.
  const auto slot_for = [table, mask = slots - 1](std::size_t pos) {
    for (std::size_t s = pos & mask;; s = (s + 1) & mask) {
      std::size_t* const slot = table + 2 * s;
      if (slot[0] == 0 || slot[0] == pos + 1) return slot;
    }
  };
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(below(n - i));
    std::size_t* const at_j = slot_for(j);
    const std::size_t* const at_i = slot_for(i);
    out[i] = at_j[0] != 0 ? at_j[1] : j;
    const std::size_t moved = at_i[0] != 0 ? at_i[1] : i;
    at_j[0] = j + 1;
    at_j[1] = moved;
  }
  out.resize(k);
  return out;
}

}  // namespace riot::sim
