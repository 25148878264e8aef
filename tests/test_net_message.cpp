// Typed envelope tests: small-buffer boundary, alignment, move-only
// payloads, accessor contracts, unknown-kind observability, and seed-
// stable trace hashes through the flat-dispatch delivery path.
#include "net/message.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>

#include "net_fixture.hpp"
#include "sim/chaos.hpp"

namespace riot::net {
namespace {

using riot::testing::NetFixture;
using riot::testing::Sink;

struct Tiny {
  std::uint64_t n = 0;
};
struct OtherTiny {
  std::uint64_t n = 0;
};
struct AtCapacity {  // exactly the inline budget
  std::byte bytes[PayloadBox::kInlineCapacity];
};
struct OverCapacity {  // one byte past it
  std::byte bytes[PayloadBox::kInlineCapacity + 1];
};
struct Aligned16 {
  alignas(16) double d[2];
};
struct OverAligned {  // alignment beyond the inline buffer's
  alignas(64) double d;
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  ThrowingMove(const ThrowingMove&) = default;
  ThrowingMove& operator=(const ThrowingMove&) = default;
};
struct MoveOnly {
  std::unique_ptr<std::uint64_t> value;
};

// --- SBO boundary ------------------------------------------------------------

static_assert(PayloadBox::stores_inline<Tiny>());
static_assert(PayloadBox::stores_inline<AtCapacity>());
static_assert(!PayloadBox::stores_inline<OverCapacity>());
static_assert(PayloadBox::stores_inline<Aligned16>());
static_assert(!PayloadBox::stores_inline<OverAligned>());
static_assert(!PayloadBox::stores_inline<ThrowingMove>());
static_assert(PayloadBox::stores_inline<MoveOnly>());

TEST(PayloadBoxTest, InlineAtCapacityHeapBeyondIt) {
  PayloadBox at{AtCapacity{}};
  EXPECT_TRUE(at.inline_stored());

  PayloadBox over{OverCapacity{}};
  ASSERT_TRUE(over.has_value());
  EXPECT_FALSE(over.inline_stored());
  EXPECT_NO_THROW((void)over.as<OverCapacity>());
}

TEST(PayloadBoxTest, AlignmentRespectedInlineAndSpilled) {
  PayloadBox aligned{Aligned16{{1.0, 2.0}}};
  EXPECT_TRUE(aligned.inline_stored());
  const auto* p = &aligned.as<Aligned16>();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(Aligned16), 0u);

  PayloadBox spilled{OverAligned{3.0}};
  EXPECT_FALSE(spilled.inline_stored());
  const auto* q = &spilled.as<OverAligned>();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % alignof(OverAligned), 0u);
  EXPECT_EQ(spilled.as<OverAligned>().d, 3.0);
}

TEST(PayloadBoxTest, NonNothrowMoveSpillsToHeap) {
  PayloadBox box{ThrowingMove{}};
  ASSERT_TRUE(box.has_value());
  EXPECT_FALSE(box.inline_stored());
  PayloadBox moved = std::move(box);  // move steals the heap cell
  EXPECT_TRUE(moved.has_value());
  EXPECT_FALSE(box.has_value());  // NOLINT(bugprone-use-after-move)
}

// --- accessor contracts ------------------------------------------------------

TEST(PayloadBoxTest, AccessorTypeMismatch) {
  PayloadBox box{Tiny{7}};
  EXPECT_TRUE(box.is<Tiny>());
  EXPECT_FALSE(box.is<OtherTiny>());
  EXPECT_EQ(box.as<Tiny>().n, 7u);
  EXPECT_THROW((void)box.as<OtherTiny>(), PayloadTypeError);
  EXPECT_EQ(box.try_as<OtherTiny>(), nullptr);
  ASSERT_NE(box.try_as<Tiny>(), nullptr);
  EXPECT_EQ(box.try_as<Tiny>()->n, 7u);

  PayloadBox empty;
  EXPECT_FALSE(empty.has_value());
  EXPECT_EQ(empty.kind(), kInvalidPayloadKind);
  EXPECT_THROW((void)empty.as<Tiny>(), PayloadTypeError);
}

TEST(PayloadBoxTest, DistinctTypesGetDistinctKinds) {
  EXPECT_NE(payload_kind_of<Tiny>(), kInvalidPayloadKind);
  EXPECT_NE(payload_kind_of<Tiny>(), payload_kind_of<OtherTiny>());
  EXPECT_EQ(payload_kind_of<Tiny>(), payload_kind_of<Tiny>());
  EXPECT_GE(payload_kind_count(), 2u);
  EXPECT_FALSE(payload_kind_name(payload_kind_of<Tiny>()).empty());
}

TEST(PayloadBoxTest, TakeMovesTheValueOut) {
  PayloadBox box{MoveOnly{std::make_unique<std::uint64_t>(11)}};
  MoveOnly out = box.take<MoveOnly>();
  ASSERT_NE(out.value, nullptr);
  EXPECT_EQ(*out.value, 11u);
  EXPECT_FALSE(box.has_value());
}

TEST(PayloadBoxTest, CopyingMoveOnlyThrows) {
  PayloadBox box{MoveOnly{std::make_unique<std::uint64_t>(3)}};
  EXPECT_FALSE(box.copyable());
  EXPECT_THROW(PayloadBox copy{box}, PayloadTypeError);
  // The failed copy must not disturb the original.
  EXPECT_EQ(*box.as<MoveOnly>().value, 3u);
}

TEST(MessageTest, VisitDispatchesFirstMatch) {
  const Message m = make_message(NodeId{1}, NodeId{2}, Tiny{9});
  std::uint64_t seen = 0;
  const bool matched = m.visit<OtherTiny, Tiny>(
      [&seen](const auto& p) { seen = p.n; });
  EXPECT_TRUE(matched);
  EXPECT_EQ(seen, 9u);
  EXPECT_FALSE(m.visit<OtherTiny>([](const auto&) {}));
}

TEST(MessageTest, WireSizeUsesTheSharedHeaderConstant) {
  const Message m = make_message(NodeId{1}, NodeId{2}, Tiny{1});
  EXPECT_EQ(m.wire_size, kWireHeaderBytes + sizeof(Tiny));
}

// --- delivery-path behaviour -------------------------------------------------

struct MessageDelivery : NetFixture {};

TEST_F(MessageDelivery, MoveOnlyPayloadDelivers) {
  struct Receiver : Node {
    explicit Receiver(Network& n) : Node(n) {
      on<MoveOnly>([this](NodeId, const MoveOnly& m) {
        sum += m.value != nullptr ? *m.value : 0;
      });
    }
    std::uint64_t sum = 0;
  };
  Receiver a(network);
  Receiver b(network);
  a.send(b.id(), MoveOnly{std::make_unique<std::uint64_t>(21)});
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(b.sum, 21u);
}

TEST_F(MessageDelivery, DuplicationCopiesCopyableSkipsMoveOnly) {
  struct Receiver : Node {
    explicit Receiver(Network& n) : Node(n) {
      on<Tiny>([this](NodeId, const Tiny&) { ++tiny; });
      on<MoveOnly>([this](NodeId, const MoveOnly&) { ++move_only; });
    }
    int tiny = 0;
    int move_only = 0;
  };
  Receiver a(network);
  Receiver b(network);
  network.set_duplicate_probability(1.0);
  a.send(b.id(), Tiny{1});
  a.send(b.id(), MoveOnly{std::make_unique<std::uint64_t>(1)});
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(b.tiny, 2);  // original + duplicate
  EXPECT_EQ(b.move_only, 1);  // duplication skipped, delivery intact
  EXPECT_EQ(network.messages_duplicated(), 1u);
}

TEST_F(MessageDelivery, UnknownKindIsObservable) {
  Sink<Tiny> a(network);
  Sink<Tiny> b(network);
  a.send(b.id(), OtherTiny{1});  // b has no OtherTiny handler
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(metrics.counter_family("riot_net_dispatch_unknown_total")
                .with({})
                .value(),
            1u);
  EXPECT_EQ(trace.count("net", "dispatch_unknown"), 1u);
}

// --- determinism -------------------------------------------------------------

// Same seed, same schedule, same trace hash: the envelope refactor must
// not leak nondeterminism (kind registration order, duplication draws,
// flight-slab recycling) into observable behaviour.
TEST(MessageDeterminism, SeedStableTraceHashAcrossRuns) {
  const auto run = [](std::uint64_t seed) {
    World world(seed);
    auto& [sim, metrics, tracer, trace, network] = world;

    std::vector<std::unique_ptr<Sink<Tiny>>> nodes;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(std::make_unique<Sink<Tiny>>(network));
    }
    network.set_duplicate_probability(0.5);
    network.set_ambient_loss(0.1);
    sim.schedule_every(sim::millis(10), [&] {
      for (auto& n : nodes) {
        n->send(nodes[0]->id(), Tiny{static_cast<std::uint64_t>(1)});
      }
    });
    sim.schedule_at(sim::millis(200), [&] { nodes[1]->crash(); });
    sim.schedule_at(sim::millis(400), [&] { nodes[1]->recover(); });
    sim.schedule_at(sim::millis(300), [&] { network.isolate(nodes[2]->id()); });
    sim.schedule_at(sim::millis(500), [&] {
      network.unisolate(nodes[2]->id());
    });
    sim.run_until(sim::seconds(1));
    return std::pair{sim::chaos::trace_hash(trace),
                     network.messages_delivered()};
  };

  const auto [hash_a, delivered_a] = run(1234);
  const auto [hash_b, delivered_b] = run(1234);
  EXPECT_EQ(hash_a, hash_b);
  EXPECT_EQ(delivered_a, delivered_b);
  EXPECT_GT(delivered_a, 0u);

  // A different seed draws different loss/duplication outcomes. (The warn
  // trace here only records the fixed-time fault schedule, so the hash is
  // the same; the delivered count exposes the RNG.)
  const auto [hash_c, delivered_c] = run(99);
  EXPECT_NE(delivered_a, delivered_c);
}

}  // namespace
}  // namespace riot::net
