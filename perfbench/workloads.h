// The benchmark's three workloads, each a configuration of a shipped
// fleet entry point (fleet::run_{portal,storm,chaos}_shard) exactly as
// the experiment bench that owns it sets it up. README.md says why
// each one was chosen.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "fleet/fleet.h"
#include "fleet/user_world.h"
#include "util/time.h"

namespace simba::perfbench {

enum class WorkloadKind { kPortal, kStorm, kChaos };

struct Workload {
  WorkloadKind kind;
  const char* name;
  /// Shards (one per-user world each) in one fleet run.
  std::size_t worlds;
  /// Distinct fleet runs (distinct base seeds) whose pooled results
  /// give the virtual-time metrics: the sample size, fixed so that a
  /// seed always yields the same metrics.
  std::size_t runs;
  /// Virtual time one world simulates: horizon + drain.
  Duration simulated_per_world;
  /// The workload marks some alerts critical (storm only).
  bool has_critical_class;
};

/// The workload called `name`, or null.
const Workload* find_workload(std::string_view name);

/// The world options the workload's shard entry point assembles for
/// shard `shard_id` — mirrored here so the set-up pass builds the same
/// worlds without running them.
fleet::UserWorldOptions shard_world_options(const Workload& workload,
                                            std::size_t shard_id);

/// One fleet run of `workload`. `traced` only matters for portal; the
/// other entry points always trace. Allocations made inside the shard
/// bodies are added to `body_allocs` (exact only when threads == 1).
fleet::FleetReport run_workload(const Workload& workload,
                                std::uint64_t base_seed, int threads,
                                bool traced,
                                std::atomic<std::uint64_t>& body_allocs);

}  // namespace simba::perfbench
