#include "data/chaos_checks.hpp"

#include <algorithm>
#include <map>

namespace riot::data::chaos {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffULL;
    h *= kFnvPrime;
  }
}

void mix(std::uint64_t& h, const std::string& s) {
  mix(h, static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
}

// Hash the observable value only; internal per-replica counts and tags
// differ between converged replicas and must not enter the digest.
void mix_object(std::uint64_t& h, const CrdtObject& object) {
  mix(h, static_cast<std::uint64_t>(object.index()));
  if (const auto* g = std::get_if<GCounter>(&object)) {
    mix(h, g->value());
  } else if (const auto* pn = std::get_if<PNCounter>(&object)) {
    mix(h, static_cast<std::uint64_t>(pn->value()));
  } else if (const auto* lww = std::get_if<LwwRegister<std::string>>(&object)) {
    const auto v = lww->value();
    mix(h, v ? 1ULL : 0ULL);
    if (v) mix(h, *v);
  } else if (const auto* set = std::get_if<OrSet<std::string>>(&object)) {
    const auto elements = set->elements();  // std::set: already ordered
    mix(h, static_cast<std::uint64_t>(elements.size()));
    for (const std::string& e : elements) mix(h, e);
  } else if (const auto* mv = std::get_if<MvRegister<std::string>>(&object)) {
    std::vector<std::string> siblings = mv->values();
    std::sort(siblings.begin(), siblings.end());  // entry order is merge order
    mix(h, static_cast<std::uint64_t>(siblings.size()));
    for (const std::string& s : siblings) mix(h, s);
  }
}

}  // namespace

std::uint64_t store_digest(const CrdtStore& store) {
  // objects() is an unordered_map; walk keys in sorted order so the digest
  // is a pure function of the observable state.
  std::map<std::string, const CrdtObject*> ordered;
  for (const auto& [key, object] : store.objects()) {
    ordered.emplace(key, &object);
  }
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(ordered.size()));
  for (const auto& [key, object] : ordered) {
    mix(h, key);
    mix_object(h, *object);
  }
  return h;
}

std::optional<std::string> CrdtConvergenceChecker::check() const {
  for (const auto& [label, replicas] : groups_) {
    if (replicas.empty()) continue;
    const std::uint64_t want = store_digest(*replicas[0]);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
      if (store_digest(*replicas[i]) == want &&
          stores_converged(*replicas[0], *replicas[i])) {
        continue;
      }
      return "group " + label + ": replicas 0 and " + std::to_string(i) +
             " diverge after cooldown";
    }
  }
  return std::nullopt;
}

}  // namespace riot::data::chaos
