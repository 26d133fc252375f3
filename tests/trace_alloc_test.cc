// Allocation regression test for trace emission: a span is a 48-byte
// record of interned pointers (DESIGN.md §11), so re-emitting an alert
// id and detail the trace has already seen allocates nothing; the only
// allocations left are the span store's chunks.
//
// This binary links counting_allocator.cc, which replaces the global
// operator new/delete with counting malloc/free wrappers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "counting_allocator.h"
#include "util/time.h"
#include "util/trace.h"

namespace simba::util {
namespace {

// Both strings are past std::string's small-string buffer: before spans
// were interned, every emit of them allocated twice.
const std::string kAlertId = "storm-source-7-alert-123456";
const std::string kDetail = "queued behind a full per-user bucket";

TEST(TraceAllocTest, ReEmittingSeenStringsAllocatesNothingWithinAChunk) {
  Trace trace;
  trace.emit(kAlertId, "mab", "coalesce", kTimeZero, kDetail);
  trace.emit_owned(kAlertId, "restored", "replay", kTimeZero, kTimeZero,
                   kDetail);

  // The first chunk has room for the rest of its spans.
  const std::uint64_t before = counted_allocations();
  for (std::size_t i = 2; i < SpanStore::kChunk; ++i) {
    const TimePoint at = kTimeZero + seconds(static_cast<std::int64_t>(i));
    if (i % 2 == 0) {
      trace.emit(kAlertId, "delivery", "block", at, at + seconds(1), kDetail);
    } else {
      trace.emit_owned(kAlertId, "restored", "replay", at, at, kDetail);
    }
  }
  EXPECT_EQ(counted_allocations() - before, 0u);
  EXPECT_EQ(trace.size(), SpanStore::kChunk);
}

TEST(TraceAllocTest, TenThousandEmitsAllocateOnlyForChunkGrowth) {
  Trace trace;
  trace.emit(kAlertId, "mab", "coalesce", kTimeZero, kDetail);

  constexpr int kEmits = 10'000;
  const std::uint64_t before = counted_allocations();
  for (int i = 0; i < kEmits; ++i) {
    trace.emit(kAlertId, "mab", "coalesce", kTimeZero + seconds(i), kDetail);
  }
  const std::uint64_t allocations = counted_allocations() - before;
  // 9 new chunks of 1,024 spans and 4 growths of the chunk list (to 2,
  // 4, 8 and 16 entries) make 13. Copying both strings into every span
  // made 20,000.
  EXPECT_LE(allocations, 16u);
  EXPECT_GE(allocations, 9u);  // the chunks themselves are counted
  EXPECT_EQ(trace.size(), static_cast<std::size_t>(kEmits) + 1);
}

}  // namespace
}  // namespace simba::util
