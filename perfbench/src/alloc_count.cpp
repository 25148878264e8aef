#include "alloc_count.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

// A plain counter, not an atomic: every workload runs on the calling thread
// and the benchmark starts no threads, so the count costs one increment.
// The sized and aligned delete forms keep the replacement set matched;
// array and nothrow forms forward to these by default.

namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_heap_allocs;
  void* p = nullptr;
  const std::size_t al =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, al, size != 0 ? size : 1) == 0) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace riot::perfbench {

std::uint64_t heap_allocs() { return g_heap_allocs; }

}  // namespace riot::perfbench
