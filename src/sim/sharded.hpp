// Sharded discrete-event kernel: deterministic multi-threaded execution.
//
// A ShardedSimulation partitions a simulation across worker threads. Each
// shard owns a full sim::Simulation — local priority queue, event slab,
// component table, and an Rng seeded from (root seed, shard index) — and
// shards advance together through conservative time windows:
//
//   window k covers [T_k, T_k + lookahead)
//
// where T_k is the minimum next-event time across shards and `lookahead`
// is a lower bound on cross-shard interaction latency (for the network
// fabric: the minimum cross-shard link latency from the class table).
// Within a window every shard executes its local events in parallel;
// cross-shard work produced during the window cannot land inside it
// (latency >= lookahead), so shards never observe each other mid-window.
// One barrier separates consecutive windows. The kernel itself buffers no
// cross-shard work; the transport layered on top (the sharded network
// fabric) does. It keeps two sides of outboxes and reports the earliest
// time each shard sent to (note_outbound), so the next window is planned
// at the barrier itself. After the barrier each shard drains the side the
// last window wrote through the exchange hook, in the transport's
// canonical order (never by arrival race), while the next window fills
// the other side.
//
// Determinism contract (the non-negotiable): for a fixed (seed, config,
// shard count), every run is bit-identical. For runs that differ only in
// shard count, applications that (a) draw randomness from per-entity
// streams (never from a shard's own rng), and (b) keep same-timestamp
// handlers on different entities commutative, execute the identical event
// set — bit-identical executed-event/message counts and an identical
// order-invariant RunHash. The sharded network fabric (net/shard_net.hpp)
// is built to those rules, and tests/test_net_sharded.cpp pins the
// 1/2/4/8-shard equivalence.
//
// Zero lookahead degenerates gracefully: windows collapse to a single
// timestamp and same-time cross-shard sends are exchanged in repeated
// rounds at that timestamp until quiescent (see the barrier edge-case
// tests) — slower, but still deterministic and never deadlocked.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace riot::sim {

/// Order-invariant run fingerprint. Records are mixed through SplitMix64
/// and combined commutatively (sum + xor + count), so the digest does not
/// depend on the order records were added in — shards can accumulate
/// locally and merge, and an N-shard run hashes identically to the
/// single-shard run that executes the same record set.
class RunHash {
 public:
  void mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
           std::uint64_t d = 0) {
    std::uint64_t state = a;
    std::uint64_t h = splitmix64(state);
    state ^= b + 0x9e3779b97f4a7c15ULL;
    h ^= splitmix64(state) * 0x2545f4914f6cdd1dULL;
    state ^= c + 0xd1342543de82ef95ULL;
    h += splitmix64(state);
    state ^= d + 0xaf251af3b0f025b5ULL;
    h ^= splitmix64(state);
    sum_ += h;
    xor_ ^= h;
    ++count_;
  }

  void merge(const RunHash& other) {
    sum_ += other.sum_;
    xor_ ^= other.xor_;
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t state = sum_;
    std::uint64_t d = splitmix64(state);
    state ^= xor_;
    d ^= splitmix64(state);
    state ^= count_;
    d += splitmix64(state);
    return d;
  }

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t xor_ = 0;
  std::uint64_t count_ = 0;
};

/// Reusable barrier for the window loop. A window is often only tens of
/// microseconds of work per shard — about what it costs to wake a blocked
/// thread — so a waiter spins for a bounded time first (yielding now and
/// then, so oversubscribed shards still progress) and only then blocks on
/// the phase word. The last thread to arrive runs the completion before
/// any waiter is released; everything written before arriving is visible
/// to every thread after the barrier.
class WindowBarrier {
 public:
  explicit WindowBarrier(std::size_t count) : count_(count) {}

  WindowBarrier(const WindowBarrier&) = delete;
  WindowBarrier& operator=(const WindowBarrier&) = delete;

  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    // The phase cannot advance before this thread arrives, so this load
    // reads the current phase.
    const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 < count_) {
      wait_past(phase);
      return;
    }
    arrived_.store(0, std::memory_order_relaxed);
    completion();
    phase_.store(phase + 1, std::memory_order_seq_cst);
    // Pairs with the sleeper's increment-then-recheck in wait_past().
    if (sleepers_.load(std::memory_order_seq_cst) > 0) phase_.notify_all();
  }

 private:
  void wait_past(std::uint32_t phase);

  const std::size_t count_;
  alignas(64) std::atomic<std::size_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> phase_{0};
  std::atomic<std::size_t> sleepers_{0};
};

class ShardedSimulation {
 public:
  /// `shard_count` >= 1. Shard i's Simulation is seeded deterministically
  /// from (seed, i); note that anything drawn from a *shard's* rng is only
  /// deterministic for that shard count — shard-count-invariant behavior
  /// requires per-entity streams (Rng derived from (seed, entity id)).
  /// Starts one worker thread per shard beyond the first; they stay parked
  /// between runs and are joined by the destructor.
  explicit ShardedSimulation(std::size_t shard_count, std::uint64_t seed = 1);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return sims_.size(); }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] Simulation& shard(std::size_t i) { return sims_[i]->sim; }
  [[nodiscard]] const Simulation& shard(std::size_t i) const {
    return sims_[i]->sim;
  }

  /// Conservative lower bound on cross-shard latency. Every cross-shard
  /// send must land at least this far past the sending shard's clock;
  /// larger values mean fewer barriers. Zero is legal (single-timestamp
  /// windows). Set before run_until.
  void set_lookahead(SimTime lookahead) { lookahead_ = lookahead; }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  /// Exchange hook, called once per shard per window on that shard's
  /// worker thread, after every shard finished executing the last window
  /// and before this shard runs the next one (and for both sides at the
  /// start of a run, for work buffered before it). A transport layered on
  /// top (the sharded network fabric) drains its typed cross-shard buffers
  /// on `side` for `dst_shard` here, in its own canonical order.
  using ExchangeFn = std::function<void(std::size_t dst_shard,
                                        std::size_t side)>;
  void set_exchange(ExchangeFn fn) { exchange_ = std::move(fn); }

  /// True while run_until executes windows. Between runs no shard
  /// executes, so cross-shard work goes straight onto its destination's
  /// queue instead of through the buffers.
  [[nodiscard]] bool running() const { return running_; }

  /// Which of a transport's two cross-shard buffers (0 or 1) work buffered
  /// now goes into. The exchange drains the other side, so the next
  /// window can fill this one while the last one's output is taken in.
  [[nodiscard]] std::size_t write_side() const { return write_side_; }

  /// A transport that buffers cross-shard work itself reports the time of
  /// each buffered item here, from the sending shard's thread (or between
  /// runs), so the next window is planned with it before it is exchanged.
  void note_outbound(std::size_t src_shard, SimTime at) {
    SimTime& earliest = slots_[src_shard].outbound_min;
    if (at < earliest) earliest = at;
  }

  /// Run every shard until its queue drains or the clock passes
  /// `deadline`; events stamped exactly at `deadline` run. Shard clocks
  /// end at `deadline` (run_until semantics). Shard 0 runs on the calling
  /// thread, every other shard on its own worker thread. An exception
  /// thrown by any handler stops the run at the next barrier and is
  /// rethrown here.
  void run_until(SimTime deadline);

  /// Sum of executed events across shards.
  [[nodiscard]] std::uint64_t executed_events() const;
  /// Sum of pending (live) events across shards.
  [[nodiscard]] std::size_t pending_events() const;
  /// Windows (barrier rounds) executed by the last run_until.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }

 private:
  // Hot per-shard coordination slots, padded so worker threads never
  // false-share a cache line. Everything here is written only by the
  // owning shard's thread (or read across the window barrier).
  struct alignas(64) ShardSlot {
    SimTime next_time = kSimTimeMax;
    SimTime outbound_min = kSimTimeMax;  // earliest cross-shard send
    std::exception_ptr error;
  };

  // A shard's kernel on cache lines of its own: every event writes its
  // clock and queue, and the neighbouring kernels belong to other threads.
  struct alignas(64) ShardKernel {
    explicit ShardKernel(std::uint64_t seed) : sim(seed) {}
    Simulation sim;
  };

  // Takes in `shard`'s inbound cross-shard work buffered on `side`.
  void exchange(std::size_t shard, std::size_t side);
  // Publishes the earliest time `shard` can act next: its own next event
  // or the earliest cross-shard work it sent during the window.
  void publish(std::size_t shard);
  // Thread body of shards 1..n-1: one worker_loop per run_until.
  void worker_main(std::size_t shard);
  void worker_loop(std::size_t shard);
  // Completion step of window_barrier_: runs on exactly one worker thread
  // once all shards arrived, before any is released — the single-threaded
  // slice that flips the buffer sides and plans the next window.
  void plan_window() noexcept;

  std::uint64_t seed_;
  SimTime lookahead_ = kSimTimeZero;
  ExchangeFn exchange_;
  std::vector<std::unique_ptr<ShardKernel>> sims_;
  std::vector<ShardSlot> slots_;
  std::size_t write_side_ = 0;
  bool running_ = false;  // set by the caller around each run
  std::uint64_t windows_ = 0;

  // Window state owned by the barrier completion step (single-threaded,
  // synchronized by the barrier for everyone else).
  SimTime window_end_ = kSimTimeZero;
  SimTime deadline_ = kSimTimeZero;
  bool done_ = false;
  // Raised by any worker that caught a handler exception; checked by the
  // completion step, which turns it into a uniform stop.
  std::atomic<bool> error_flag_{false};

  // window_barrier_ separates "everyone executed the window and published
  // next_time" from "next window planned, last window's output may be
  // drained". start_barrier_ and finish_barrier_ bracket each run_until:
  // between them the workers run windows, outside them they are parked
  // and the caller owns every shard.
  WindowBarrier window_barrier_;
  WindowBarrier start_barrier_;
  WindowBarrier finish_barrier_;
  bool stop_ = false;  // set by the destructor, read after start_barrier_
  // Whether the workers may enter the window protocol: every one of them
  // started (go), or the constructor failed part-way (abort).
  static constexpr std::uint32_t kLaunchPending = 0;
  static constexpr std::uint32_t kLaunchGo = 1;
  static constexpr std::uint32_t kLaunchAbort = 2;
  std::atomic<std::uint32_t> launch_{kLaunchPending};
  std::vector<std::thread> workers_;
};

}  // namespace riot::sim
