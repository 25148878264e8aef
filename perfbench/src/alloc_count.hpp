// Process-wide heap-allocation counter.
//
// alloc_count.cpp replaces the global operator new/delete set; every
// allocation made through operator new (containers, std::function spills,
// shared_ptr control blocks) bumps one counter. Link alloc_count.cpp into
// an executable to enable it.
#pragma once

#include <cstdint>

namespace riot::perfbench {

/// Allocations made through global operator new since the process started.
[[nodiscard]] std::uint64_t heap_allocs();

}  // namespace riot::perfbench
