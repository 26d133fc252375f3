// Allocation regression test for trace emission: a span is a 48-byte
// record of interned pointers (DESIGN.md §11), so re-emitting an alert
// id and detail the trace has already seen allocates nothing; the only
// allocations left are the span store's chunks.
//
// This binary replaces the global operator new/delete with counting
// malloc/free wrappers; no other target links this file.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "util/time.h"
#include "util/trace.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
  const std::uint64_t before = g_allocations.load();
  for (std::size_t i = 2; i < SpanStore::kChunk; ++i) {
    const TimePoint at = kTimeZero + seconds(static_cast<std::int64_t>(i));
    if (i % 2 == 0) {
      trace.emit(kAlertId, "delivery", "block", at, at + seconds(1), kDetail);
    } else {
      trace.emit_owned(kAlertId, "restored", "replay", at, at, kDetail);
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(trace.size(), SpanStore::kChunk);
}

TEST(TraceAllocTest, TenThousandEmitsAllocateOnlyForChunkGrowth) {
  Trace trace;
  trace.emit(kAlertId, "mab", "coalesce", kTimeZero, kDetail);

  constexpr int kEmits = 10'000;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kEmits; ++i) {
    trace.emit(kAlertId, "mab", "coalesce", kTimeZero + seconds(i), kDetail);
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  // 9 new chunks of 1,024 spans and 4 growths of the chunk list (to 2,
  // 4, 8 and 16 entries) make 13. Copying both strings into every span
  // made 20,000.
  EXPECT_LE(allocations, 16u);
  EXPECT_GE(allocations, 9u);  // the chunks themselves are counted
  EXPECT_EQ(trace.size(), static_cast<std::size_t>(kEmits) + 1);
}

}  // namespace
}  // namespace simba::util
