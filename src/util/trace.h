// Deterministic alert-lifecycle tracing.
//
// A Trace is an append-only list of Spans, each stamped with virtual
// time only (the simulator clock) so that a fixed seed and scenario
// produce a byte-identical trace on every run, on every platform, at
// every fleet thread count. Components hold a `Trace*` (null means
// tracing is off) and emit spans at the interesting points of an
// alert's lifecycle: bus send/deliver and chaos injections, log
// append/ack/recovery, MAB classify → aggregate → filter → route, and
// delivery-engine block/action attempts with fallback and skip
// reasons.
//
// Like Counters/Summary/Histogram, traces merge: fleet shards each
// record their own Trace and run_fleet folds them together in shard
// order, so the merged trace is independent of the thread count.
// Export is canonical sorted JSONL (integer microsecond timestamps,
// no floats) — the format the golden-trace tests byte-compare.
#pragma once

#include <cstddef>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/interner.h"
#include "util/stats.h"
#include "util/time.h"

namespace simba::util {

/// One lifecycle event: a 48-byte record of four string pointers and
/// two timestamps. `component` and `stage` passed to Trace::emit MUST
/// be string literals (static storage duration): spans copy only the
/// pointer. `alert_id` and `detail` (and the labels of emit_owned) are
/// interned in the owning Trace's string storage, so a span is valid
/// for as long as that trace — or anything it is moved or move-merged
/// into — lives. Instant events have start == end; stages with real
/// latency (log write, bus transit, delivery blocks) carry their
/// duration as [start, end].
struct Span {
  const char* alert_id = "";  // "" for non-alert traffic (sign-in, sweeps)
  const char* component = "";
  const char* stage = "";
  TimePoint start{};
  TimePoint end{};
  const char* detail = "";

  Duration duration() const { return end - start; }
};
static_assert(sizeof(Span) <= 48, "Span is four pointers and two stamps");

/// Append-only span storage in fixed-size chunks, each its own heap
/// block reserved up front. Appending never moves a stored span, so a
/// merged fleet trace of ~750k spans grows without reallocating what
/// it holds and growth allocates once per kChunk spans. (A std::deque,
/// with 512-byte blocks, peaked 5% higher on the storm benchmark;
/// EXPERIMENTS.md K5.) The size is derived from the chunks, so the
/// default copy and move keep it right: a moved-from store is empty.
class SpanStore {
  using Chunks = std::vector<std::vector<Span>>;

 public:
  static constexpr std::size_t kChunk = 1024;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Span;
    using difference_type = std::ptrdiff_t;
    using pointer = const Span*;
    using reference = const Span&;

    const_iterator() = default;
    reference operator*() const {
      return (*chunks_)[index_ / kChunk][index_ % kChunk];
    }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class SpanStore;
    const_iterator(const Chunks* chunks, std::size_t index)
        : chunks_(chunks), index_(index) {}
    const Chunks* chunks_ = nullptr;
    std::size_t index_ = 0;
  };

  void push_back(const Span& span) {
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
      chunks_.emplace_back().reserve(kChunk);
    }
    chunks_.back().push_back(span);
  }
  std::size_t size() const {
    return chunks_.empty() ? 0
                           : (chunks_.size() - 1) * kChunk +
                                 chunks_.back().size();
  }
  bool empty() const { return chunks_.empty(); }
  const_iterator begin() const { return {&chunks_, 0}; }
  const_iterator end() const { return {&chunks_, size()}; }

 private:
  Chunks chunks_;
};

class Trace {
 public:
  Trace() = default;
  /// A copy re-interns every string into its own storage, so it never
  /// points into its source and outlives it.
  Trace(const Trace& other);
  Trace& operator=(const Trace& other);
  /// A move hands the string storage over without relocating a string,
  /// so every span keeps pointing at valid text. The source is left
  /// empty and can be emitted into again.
  Trace(Trace&&) = default;
  Trace& operator=(Trace&&) = default;

  /// Instant event at `at`.
  void emit(std::string_view alert_id, const char* component,
            const char* stage, TimePoint at, std::string_view detail = {});
  /// Event spanning [start, end]. Interns `alert_id` and `detail`: an
  /// id or detail this trace has seen before costs one hash probe and
  /// no allocation.
  void emit(std::string_view alert_id, const char* component,
            const char* stage, TimePoint start, TimePoint end,
            std::string_view detail = {});

  /// Emits a span whose component/stage labels are NOT string literals
  /// (checkpoint decode, sim/snapshot.h): the labels are interned into
  /// trace-owned storage too.
  void emit_owned(std::string_view alert_id, std::string_view component,
                  std::string_view stage, TimePoint start, TimePoint end,
                  std::string_view detail = {});

  const SpanStore& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }

  /// Appends `other`'s spans in order. Merging shard traces in shard
  /// order yields the same span sequence for any thread count, exactly
  /// like Counters::merge / Summary::merge. Every string is re-interned
  /// into this trace's own storage, so the merged trace stays valid
  /// after `other` dies.
  void merge(const Trace& other);

  /// Same result as merge(const Trace&), without copying a string:
  /// appends `other`'s spans as they are and adopts its string storage
  /// (address-stable, so the appended pointers stay valid). `other` is
  /// left empty.
  void merge(Trace&& other);

  /// Canonical export: one JSON object per line, in canonical order
  /// (start, alert_id, component, stage, end, detail; stable for full
  /// ties), integer microsecond timestamps only — byte-identical across
  /// runs, platforms, and fleet thread counts for a fixed seed +
  /// scenario.
  /// {"t":1500000,"dur":250000,"alert":"s0-1","comp":"log",
  ///  "stage":"append","detail":"fresh"}
  std::string to_jsonl() const;

  /// Per-stage latency distributions keyed "component.stage", over
  /// span durations in seconds (instant spans contribute 0).
  // simba-lint: ordered (report-time; callers print stages sorted)
  std::map<std::string, Summary> stage_latency() const;

  /// Per-stage latency histograms over span durations in seconds, all
  /// sharing `boundaries`. Keyed like stage_latency().
  // simba-lint: ordered
  std::map<std::string, Histogram> stage_histograms(
      const std::vector<double>& boundaries) const;

  /// Human-oriented per-stage latency table (one stage per line), for
  /// the bench report sections.
  std::string stage_report() const;

  /// All spans for one alert, in canonical order.
  std::vector<Span> spans_for(std::string_view alert_id) const;

  /// Multi-line lifecycle listing for one alert, for invariant-failure
  /// reports: "  [d+hh:mm:ss.mmm +dur] comp.stage detail".
  std::string describe(std::string_view alert_id) const;

 private:
  const char* intern(std::string_view text) {
    return text.empty() ? "" : strings_.intern(text);
  }

  /// Interned alert ids, details and non-literal labels of the spans
  /// emitted or copied into this trace.
  StringInterner strings_;
  /// String storage adopted by merge(Trace&&), each interner on the
  /// heap so that growing this list never relocates one.
  std::vector<std::unique_ptr<StringInterner>> adopted_;
  SpanStore spans_;
};

}  // namespace simba::util
