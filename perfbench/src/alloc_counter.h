// Heap-allocation counter of the perfbench binary: alloc_counter.cpp
// replaces the global operator new/delete of this executable only (the
// libraries it links are unchanged), so every allocation on any thread is
// counted.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Allocations made by the process since it started.
AllocCount allocations();

}  // namespace perfbench
