// Allocation counting for the allocation regression tests.
//
// counting_allocator.cc replaces the global operator new/delete with
// counting malloc/free wrappers. Only the binaries that measure
// allocations (im_alloc_test, trace_alloc_test) link it.
#pragma once

#include <cstdint>

namespace simba {

/// Global operator new calls (scalar and array) so far, from every
/// thread.
std::uint64_t counted_allocations();

}  // namespace simba
