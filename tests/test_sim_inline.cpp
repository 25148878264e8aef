#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "sim/flat_map.hpp"
#include "sim/inline_function.hpp"
#include "sim/rng.hpp"

namespace riot::sim {
namespace {

using Fn = InlineFunction<int(int)>;

TEST(InlineFunction, InlineAndSpilledCapturesBothRunAndMove) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes: spills to the heap
  big[15] = 7;
  auto small = [k = 3](int x) { return x * k; };
  auto large = [big](int x) { return x + static_cast<int>(big[15]); };
  static_assert(Fn::stores_inline<decltype(small)>());
  static_assert(!Fn::stores_inline<decltype(large)>());
  Fn a = small;
  Fn b = large;
  Fn moved_a = std::move(a);
  Fn moved_b = std::move(b);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved_a(5), 15);
  EXPECT_EQ(moved_b(5), 12);
}

TEST(InlineFunction, HoldsMoveOnlyCapturesAndDestroysThemOnce) {
  auto token = std::make_shared<int>(1);
  {
    Fn f = [p = std::make_unique<int>(4), token](int x) { return x + *p; };
    EXPECT_EQ(token.use_count(), 2);
    Fn g = std::move(f);
    EXPECT_EQ(g(1), 5);
    g = nullptr;
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, EmptyStdFunctionAndNullPointerConvertToEmpty) {
  EXPECT_FALSE(Fn{std::function<int(int)>{}});
  int (*none)(int) = nullptr;
  EXPECT_FALSE(Fn{none});
  EXPECT_THROW(Fn{}(1), std::bad_function_call);
  EXPECT_EQ(Fn{std::function<int(int)>([](int x) { return -x; })}(2), -2);
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomInsertAndErase) {
  // Keys drawn from a small range collide and erase often, exercising the
  // backward-shift deletion across wrapped probe runs.
  FlatMap<std::uint64_t, std::uint32_t> flat;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  Rng rng(99);
  for (std::uint32_t step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.below(300);
    if (rng.chance(0.5)) {
      flat.insert_or_assign(key, step);
      reference[key] = step;
    } else {
      EXPECT_EQ(flat.erase(key), reference.erase(key) == 1);
    }
    ASSERT_EQ(flat.size(), reference.size());
  }
  for (std::uint64_t key = 0; key < 300; ++key) {
    const auto it = reference.find(key);
    const std::uint32_t* found = flat.find(key);
    ASSERT_EQ(found != nullptr, it != reference.end()) << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second);
    }
  }
}

}  // namespace
}  // namespace riot::sim
