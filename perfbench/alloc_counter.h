// Allocation counting for the benchmark binary only.
//
// alloc_counter.cc replaces every form of the global operator new and
// operator delete (plain, array, nothrow, sized, aligned) with
// malloc/free wrappers that count successful allocations. Nothing
// under src/ links it, so only this binary pays for the counting.
// Counts are exact for work done on one thread; with a thread pool
// they include every thread's allocations.
#pragma once

#include <cstdint>

namespace simba::perfbench {

struct AllocCounts {
  std::uint64_t allocs = 0;  // successful operator new calls
};

/// Totals since process start.
AllocCounts alloc_counts();

/// Allocations made since `since` was read.
inline std::uint64_t allocs_since(const AllocCounts& since) {
  return alloc_counts().allocs - since.allocs;
}

}  // namespace simba::perfbench
