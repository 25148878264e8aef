#include "alloc_count.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

// Relaxed atomic: bench_scale's sharded rung allocates from worker threads.
// Every replaced new allocates with malloc and every delete frees, so the
// set must cover each form the standard library calls. Array forms forward
// to these by default; the nothrow forms are replaced too, because
// sanitizer runtimes supply their own, which would not match free (a
// std::stable_sort temporary buffer is one such allocation).
namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

/// One counted allocation; `align` 0 means malloc's alignment.
void* allocate(std::size_t size, std::size_t align) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align == 0) return std::malloc(size);
  void* p = nullptr;
  return posix_memalign(&p, std::max(align, sizeof(void*)), size) == 0
             ? p
             : nullptr;
}

void* allocate_or_throw(std::size_t size, std::size_t align) {
  if (void* p = allocate(size, align)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return allocate_or_throw(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace riot::alloc {

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace riot::alloc
