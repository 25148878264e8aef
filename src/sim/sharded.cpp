#include "sim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace riot::sim {

namespace {

// How long a barrier waiter spins before it blocks: about what blocking
// and being woken again can cost on a virtualized host, where the
// releasing thread pays for every sleeper it wakes. A wait shorter than
// this never blocks; a longer one spends at most twice the minimum.
constexpr auto kBarrierSpin = std::chrono::microseconds(250);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spins (yielding now and then, so oversubscribed threads still progress)
// until `word` no longer holds `old`, for at most kBarrierSpin. Returns
// whether it changed; the caller blocks if not.
bool spin_until_changed(const std::atomic<std::uint32_t>& word,
                        std::uint32_t old) {
  const auto spin_end = std::chrono::steady_clock::now() + kBarrierSpin;
  for (std::uint32_t i = 1;; ++i) {
    if (word.load(std::memory_order_acquire) != old) return true;
    if (i % 64 != 0) {
      cpu_relax();
      continue;
    }
    if (std::chrono::steady_clock::now() >= spin_end) return false;
    std::this_thread::yield();
  }
}

// Worker placement. Each worker is moved onto its own CPU of the allowed
// set (other than the creating thread's) as soon as it exists, and takes
// the whole set back once every worker is running. Where the scheduler
// balances load this changes nothing; where it does not — a cpuset with
// load balancing off keeps a new thread on its creator's CPU, queued
// behind the creator — it is what lets the shards run in parallel at all.
struct CpuPlacement {
#if defined(__linux__)
  cpu_set_t allowed{};
  bool known = false;
  int home = -1;  // the creating thread's CPU
#endif
};

CpuPlacement creator_placement() noexcept {
  CpuPlacement placement;
#if defined(__linux__)
  placement.known =
      sched_getaffinity(0, sizeof placement.allowed, &placement.allowed) == 0;
  placement.home = sched_getcpu();
#endif
  return placement;
}

// Called by the creator: pins `worker` to the `rank`-th allowed CPU other
// than the creator's.
void place_worker(const CpuPlacement& placement, std::thread& worker,
                  std::size_t rank) noexcept {
#if defined(__linux__)
  if (!placement.known) return;
  const auto usable = [&](int cpu) {
    return cpu != placement.home && CPU_ISSET(cpu, &placement.allowed);
  };
  std::size_t count = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) count += usable(cpu) ? 1 : 0;
  if (count == 0) return;
  std::size_t skip = rank % count;
  int target = 0;
  for (;; ++target) {
    if (!usable(target)) continue;
    if (skip == 0) break;
    --skip;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(target, &one);
  pthread_setaffinity_np(worker.native_handle(), sizeof one, &one);
#else
  (void)placement;
  (void)worker;
  (void)rank;
#endif
}

// Called by the worker once every worker is placed: takes the whole
// allowed set back, staying where it is.
void unpin_self(const CpuPlacement& placement) noexcept {
#if defined(__linux__)
  if (!placement.known) return;
  pthread_setaffinity_np(pthread_self(), sizeof placement.allowed,
                         &placement.allowed);
#else
  (void)placement;
#endif
}

std::uint64_t shard_seed(std::uint64_t root, std::size_t shard) {
  // Stateless derivation: shard streams must not depend on construction
  // order or on each other.
  std::uint64_t state =
      root ^ (0xd1342543de82ef95ULL * (static_cast<std::uint64_t>(shard) + 1));
  return splitmix64(state);
}

}  // namespace

void WindowBarrier::wait_past(std::uint32_t phase) {
  if (spin_until_changed(phase_, phase)) return;
  // Announce the sleep before the last look at the phase, so the releasing
  // thread either sees a sleeper and notifies, or this load sees the new
  // phase (both sides are sequentially consistent).
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  while (phase_.load(std::memory_order_seq_cst) == phase) {
    phase_.wait(phase, std::memory_order_acquire);
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

ShardedSimulation::ShardedSimulation(std::size_t shard_count,
                                     std::uint64_t seed)
    : seed_(seed),
      window_barrier_(shard_count > 0 ? shard_count : 1),
      start_barrier_(shard_count > 0 ? shard_count : 1),
      finish_barrier_(shard_count > 0 ? shard_count : 1) {
  if (shard_count == 0) {
    throw std::invalid_argument("ShardedSimulation: shard_count must be >= 1");
  }
  sims_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    sims_.push_back(std::make_unique<ShardKernel>(shard_seed(seed, i)));
  }
  slots_.resize(shard_count);
  // Started here rather than per run, so a run's first window does not
  // wait on thread creation. A worker enters the window protocol only
  // once every worker exists; if one cannot be started, the others are
  // told to leave and joined before the error propagates.
  const CpuPlacement placement = creator_placement();
  workers_.reserve(shard_count - 1);
  try {
    for (std::size_t i = 1; i < shard_count; ++i) {
      workers_.emplace_back([this, i, placement] {
        if (!spin_until_changed(launch_, kLaunchPending)) {
          launch_.wait(kLaunchPending, std::memory_order_acquire);
        }
        if (launch_.load(std::memory_order_acquire) == kLaunchAbort) return;
        unpin_self(placement);
        worker_main(i);
      });
      place_worker(placement, workers_.back(), i - 1);
    }
  } catch (...) {
    launch_.store(kLaunchAbort, std::memory_order_release);
    launch_.notify_all();
    for (std::thread& t : workers_) t.join();
    throw;
  }
  launch_.store(kLaunchGo, std::memory_order_release);
  launch_.notify_all();
}

ShardedSimulation::~ShardedSimulation() {
  if (workers_.empty()) return;
  stop_ = true;
  start_barrier_.arrive_and_wait([] {});
  for (std::thread& t : workers_) t.join();
}

void ShardedSimulation::plan_window() noexcept {
  // Whatever the plan, the exchange after this barrier drains what the
  // last window wrote.
  write_side_ ^= 1;
  if (error_flag_.load(std::memory_order_relaxed)) {
    done_ = true;
    return;
  }
  SimTime next = kSimTimeMax;
  for (const ShardSlot& slot : slots_) {
    next = std::min(next, slot.next_time);
  }
  if (next == kSimTimeMax || next > deadline_) {
    done_ = true;
    return;
  }
  // Window horizon: lookahead, floored at 1 ns so zero lookahead
  // degenerates to single-timestamp rounds instead of an empty window.
  const SimTime horizon = lookahead_ > kSimTimeZero ? lookahead_ : nanos(1);
  // Cap just past the deadline: events stamped exactly at the deadline run
  // (run_until semantics), nothing later does.
  const SimTime cap =
      deadline_ >= kSimTimeMax - nanos(1) ? kSimTimeMax : deadline_ + nanos(1);
  window_end_ = next >= cap - horizon ? cap : next + horizon;
  ++windows_;
}

void ShardedSimulation::worker_main(std::size_t shard) {
  for (;;) {
    start_barrier_.arrive_and_wait([] {});
    if (stop_) return;
    worker_loop(shard);
    finish_barrier_.arrive_and_wait([] {});
  }
}

void ShardedSimulation::exchange(std::size_t shard, std::size_t side) {
  if (!exchange_ || error_flag_.load(std::memory_order_relaxed)) return;
  try {
    exchange_(shard, side);
  } catch (...) {
    slots_[shard].error = std::current_exception();
    error_flag_.store(true, std::memory_order_relaxed);
  }
}

void ShardedSimulation::publish(std::size_t shard) {
  ShardSlot& slot = slots_[shard];
  slot.next_time =
      std::min(sims_[shard]->sim.next_event_time(), slot.outbound_min);
  slot.outbound_min = kSimTimeMax;
}

void ShardedSimulation::worker_loop(std::size_t shard) {
  Simulation& sim = sims_[shard]->sim;
  ShardSlot& slot = slots_[shard];
  // No handler runs yet, so both sides can be taken in: whatever a run
  // stopped by an exception left behind, and anything a transport
  // buffered between runs. The first window is then planned with it.
  exchange(shard, write_side_ ^ 1);
  exchange(shard, write_side_);
  publish(shard);
  for (;;) {
    window_barrier_.arrive_and_wait([this] { plan_window(); });
    // Every shard finished the last window, so its cross-shard output is
    // complete: take it in, then run the next window in parallel.
    exchange(shard, write_side_ ^ 1);
    if (done_) break;
    if (!error_flag_.load(std::memory_order_relaxed)) {
      try {
        sim.run_before(window_end_);
      } catch (...) {
        slot.error = std::current_exception();
        error_flag_.store(true, std::memory_order_relaxed);
      }
    }
    publish(shard);
  }
}

void ShardedSimulation::run_until(SimTime deadline) {
  // The workers are parked outside start_barrier_, so this state is the
  // caller's to reset.
  deadline_ = deadline;
  done_ = false;
  windows_ = 0;
  error_flag_.store(false, std::memory_order_relaxed);
  for (ShardSlot& slot : slots_) slot.error = nullptr;

  // Shard 0 rides the calling thread, so a single-shard kernel runs
  // exactly like a plain Simulation loop with per-window bookkeeping.
  running_ = true;
  start_barrier_.arrive_and_wait([] {});
  worker_loop(0);
  finish_barrier_.arrive_and_wait([] {});
  running_ = false;

  // Surface the first (lowest-shard) handler exception deterministically.
  for (ShardSlot& slot : slots_) {
    if (slot.error != nullptr) {
      std::exception_ptr err = slot.error;
      slot.error = nullptr;
      std::rethrow_exception(err);
    }
  }
  // Pin every shard clock to the deadline (run_until semantics). All
  // events <= deadline already ran, so these calls execute nothing.
  for (auto& kernel : sims_) kernel->sim.run_until(deadline);
}

std::uint64_t ShardedSimulation::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& kernel : sims_) total += kernel->sim.executed_events();
  return total;
}

std::size_t ShardedSimulation::pending_events() const {
  std::size_t total = 0;
  for (const auto& kernel : sims_) total += kernel->sim.pending_events();
  return total;
}

}  // namespace riot::sim
