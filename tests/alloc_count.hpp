// Process-wide heap-allocation counter. alloc_count.cpp replaces the global
// operator new/delete set, so only binaries that count allocations link it
// (object library riot_alloc_count).
#pragma once

#include <cstdint>

namespace riot::alloc {

/// Allocations made through global operator new since the process started.
[[nodiscard]] std::uint64_t heap_allocs();

}  // namespace riot::alloc
