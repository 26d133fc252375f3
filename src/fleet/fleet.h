// Sharded parallel fleet runner.
//
// The paper's portal workload (Section 1: ~225k users, ~778k alerts a
// day) is embarrassingly parallel: every user's MyAlertBuddy world is
// independent by construction. The fleet runner exploits that — it
// partitions N per-user worlds across a thread pool, one Simulator per
// shard per thread, each seeded deterministically from
// shard_seed(base_seed, shard_id), and merges the per-shard statistics
// in shard order. Because shard seeds do not depend on scheduling and
// merging is order-fixed, the merged report is bit-identical for any
// thread count (the determinism regression in tests/fleet_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/stats.h"
#include "util/trace.h"

namespace simba::fleet {

/// Deterministic per-shard seed: base_seed and shard_id mixed through
/// splitmix64 so neighbouring shards get uncorrelated streams while
/// the mapping stays stable across runs, platforms, and thread counts.
std::uint64_t shard_seed(std::uint64_t base_seed, std::size_t shard_id);

/// Bucket boundaries every fleet delivery-latency histogram uses, so
/// per-shard histograms are always merge-compatible. Spans the IM
/// fast path (~1 s) through the email tail (hours).
std::vector<double> delivery_latency_boundaries();

/// Work order handed to a shard body: which shard, and its seed.
struct ShardTask {
  std::size_t shard_id = 0;
  std::uint64_t seed = 0;
};

/// One shard's outcome. Everything except wall_seconds is a pure
/// function of the shard seed and options, and participates in the
/// deterministic merged report; wall_seconds is timing-only.
struct ShardResult {
  std::size_t shard_id = 0;
  std::uint64_t seed = 0;
  Counters counters;
  Summary delivery_latency;  // seconds, submit -> user's first sighting
  Summary ack_latency;       // seconds, send -> source-side ack
  /// Critical (high-importance) alerts only — the latency the overload
  /// defenses exist to protect under storm load (experiment E12).
  Summary critical_latency;
  Histogram delivery_histogram{delivery_latency_boundaries()};
  std::uint64_t events_processed = 0;
  double wall_seconds = 0.0;
  /// Lifecycle trace (empty when the workload ran untraced). Virtual
  /// timestamps only, so it participates in determinism checks.
  /// FleetReport::merge_shard moves it into FleetReport::trace, so it
  /// is empty in FleetReport::per_shard.
  util::Trace trace;
  /// Human-readable invariant-violation report, including each
  /// violating alert's full trace (empty when the contract held).
  /// Diagnostic text only — excluded from correctness_json().
  std::string violation_details;
};

/// Merged view of a whole fleet run, plus the per-shard results (in
/// shard order) for tests that assert per-shard invariants.
struct FleetReport {
  std::size_t shards = 0;
  int threads = 1;
  std::uint64_t base_seed = 0;
  Counters counters;
  Summary delivery_latency;
  Summary ack_latency;
  Summary critical_latency;
  Histogram delivery_histogram{delivery_latency_boundaries()};
  std::uint64_t events_processed = 0;
  Summary shard_wall_seconds;  // timing-only, excluded from correctness
  double wall_seconds = 0.0;   // whole-fleet wall clock
  /// Shard traces folded in shard order — bit-identical for any thread
  /// count, like every other merged statistic here.
  util::Trace trace;
  /// Per-shard results in shard order, each with its trace moved out
  /// into `trace` above.
  std::vector<ShardResult> per_shard;

  /// Folds one shard in: merges its statistics, moves its trace into
  /// `trace`, and appends the rest to `per_shard`. Callers must fold in
  /// shard order to keep the merged floating-point statistics
  /// scheduling-independent. Pass an rvalue to fold without copying the
  /// trace.
  void merge_shard(ShardResult shard);

  /// Deterministic snapshot of every correctness-relevant number —
  /// counters, latency statistics, histogram buckets, per-shard seeds
  /// and counters — with all timing omitted. Two runs of the same
  /// fleet at different thread counts must render identical strings.
  std::string correctness_json() const;

  /// Human-readable rendering including timing, for bench output.
  std::string render() const;
};

struct FleetOptions {
  std::size_t shards = 1;
  /// <= 1 runs every shard on the calling thread; higher values use a
  /// pool of std::threads. Either way shards are claimed off one queue
  /// in shard order.
  int threads = 1;
  std::uint64_t base_seed = 42;
};

/// Runs one independent per-user world to its horizon and reports.
using ShardBody = std::function<ShardResult(const ShardTask&)>;

/// Hands shards out to workers in claim order, folds finished shards
/// in shard order, and records the first shard failure. This is the
/// fleet runner's only cross-thread mutable state (each worker writes
/// results into its own slot), so it is the lock that Clang's
/// -Wthread-safety checks: its fields are GUARDED_BY the util::Mutex
/// and only touched under util::MutexLock. Shard *seeds* never depend
/// on which worker claims which shard, and folds run in shard order, so
/// the merged report stays bit-identical across thread counts.
class ShardScheduler {
 public:
  explicit ShardScheduler(std::size_t shards)
      : finished_(shards, false), shards_(shards) {}

  /// Next unclaimed shard id, or `shards` when drained. Fails fast: a
  /// recorded failure drains the queue so workers stop claiming new
  /// shards once one shard has thrown.
  std::size_t claim() SIMBA_EXCLUDES(mu_);

  /// Marks `shard` finished, then calls `fold(i)` for each finished
  /// shard i whose lower-numbered shards are all folded, in shard
  /// order. `fold` runs under the lock: folds never overlap, happen in
  /// shard order whichever worker finishes which shard, and each sees
  /// the result its worker wrote before calling finish().
  void finish(std::size_t shard,
              const std::function<void(std::size_t)>& fold)
      SIMBA_EXCLUDES(mu_);

  /// Records the first failure thrown by a shard body (later ones are
  /// dropped; the first is what run_fleet rethrows after join).
  void record_failure(std::exception_ptr error) SIMBA_EXCLUDES(mu_);

  /// Rethrows the recorded failure, if any. Call after all workers
  /// have joined.
  void rethrow_if_failed() SIMBA_EXCLUDES(mu_);

 private:
  util::Mutex mu_;
  std::size_t next_ SIMBA_GUARDED_BY(mu_) = 0;
  std::vector<bool> finished_ SIMBA_GUARDED_BY(mu_);
  std::size_t next_fold_ SIMBA_GUARDED_BY(mu_) = 0;
  std::exception_ptr first_failure_ SIMBA_GUARDED_BY(mu_);
  const std::size_t shards_;
};

/// Executes `body` once per shard across the pool and merges results
/// in shard order, each as soon as every lower-numbered shard is
/// merged, moving its trace into the report so no shard trace outlives
/// its fold. The body runs with no shared mutable state between shards
/// (each builds its own Simulator/World); the runner only hands it a
/// ShardTask and collects the ShardResult.
FleetReport run_fleet(const FleetOptions& options, const ShardBody& body);

}  // namespace simba::fleet
