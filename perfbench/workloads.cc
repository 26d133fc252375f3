#include "workloads.h"

#include <string>

#include "alloc_counter.h"
#include "fleet/chaos_workload.h"
#include "fleet/portal_workload.h"
#include "fleet/storm_workload.h"

namespace simba::perfbench {
namespace {

// Sizes: README.md ("Sizing and noise") says how they were chosen.
constexpr Workload kWorkloads[] = {
    {WorkloadKind::kPortal, "portal", 200, 7, days(1) + hours(6), false},
    {WorkloadKind::kStorm, "storm", 12, 12, hours(4) + hours(2), true},
    {WorkloadKind::kChaos, "chaos", 150, 18, hours(8) + hours(2), false},
};

// E9 as bench_portal_scale builds it.
fleet::PortalWorkloadOptions portal_options(bool traced) {
  fleet::PortalWorkloadOptions o;
  o.traffic = fleet::Traffic::kPortalEmail;
  o.alerts_per_user_day = 778000.0 / 225000.0;
  o.world.fidelity = fleet::ModelFidelity::kCalibrated;
  o.world.email_check_interval = minutes(60);
  o.world.trace = traced;
  return o;
}

// E12's defended posture as bench_storm configures it.
fleet::StormWorkloadOptions storm_options() {
  fleet::StormWorkloadOptions o;
  o.world.fidelity = fleet::ModelFidelity::kFast;
  o.world.email_check_interval = minutes(15);
  o.world.overload = fleet::storm_defenses();
  o.world.bus_pending_bound = 4096;
  o.critical_per_day = 600.0;
  o.sensor_cascades = 12;
  o.cascade_size = 150;
  o.cascade_spread = seconds(60);
  o.poll_bursts = 8;
  o.burst_size = 200;
  o.burst_spread = seconds(45);
  return o;
}

// E10's `everything` preset as bench_chaos_sweep configures it.
fleet::ChaosWorkloadOptions chaos_options() {
  fleet::ChaosWorkloadOptions o;
  o.scenario = sim::ChaosScenario::everything();
  o.world.fidelity = fleet::ModelFidelity::kFast;
  o.world.email_check_interval = minutes(15);
  return o;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

fleet::UserWorldOptions shard_world_options(const Workload& workload,
                                            std::size_t shard_id) {
  // Each branch repeats the option assembly at the top of the matching
  // run_*_shard body.
  fleet::UserWorldOptions world;
  switch (workload.kind) {
    case WorkloadKind::kPortal: {
      const fleet::PortalWorkloadOptions o = portal_options(false);
      world = o.world;
      world.with_source = o.traffic == fleet::Traffic::kSourceIm;
      world.fault_horizon = o.horizon;
      break;
    }
    case WorkloadKind::kStorm: {
      const fleet::StormWorkloadOptions o = storm_options();
      world = o.world;
      world.with_source = true;
      world.storm_config = true;
      world.fault_horizon = o.horizon;
      world.chaos = o.scenario;
      world.track_invariants = true;
      world.trace = true;
      break;
    }
    case WorkloadKind::kChaos: {
      const fleet::ChaosWorkloadOptions o = chaos_options();
      world = o.world;
      world.with_source = true;
      world.fault_horizon = o.horizon;
      world.chaos = o.scenario;
      world.track_invariants = true;
      world.trace = true;
      break;
    }
  }
  world.user = "user" + std::to_string(shard_id);
  return world;
}

fleet::FleetReport run_workload(const Workload& workload,
                                std::uint64_t base_seed, int threads,
                                bool traced,
                                std::atomic<std::uint64_t>& body_allocs) {
  fleet::FleetOptions fleet_options;
  fleet_options.shards = workload.worlds;
  fleet_options.threads = threads;
  fleet_options.base_seed = base_seed;

  // Options are built once per fleet run, outside the timed shard
  // bodies, as the experiment benches do.
  const fleet::PortalWorkloadOptions portal = portal_options(traced);
  const fleet::StormWorkloadOptions storm = storm_options();
  const fleet::ChaosWorkloadOptions chaos = chaos_options();
  return fleet::run_fleet(fleet_options, [&](const fleet::ShardTask& task) {
    const AllocCounts before = alloc_counts();
    fleet::ShardResult result;
    switch (workload.kind) {
      case WorkloadKind::kPortal:
        result = fleet::run_portal_shard(task, portal);
        break;
      case WorkloadKind::kStorm:
        result = fleet::run_storm_shard(task, storm);
        break;
      case WorkloadKind::kChaos:
        result = fleet::run_chaos_shard(task, chaos);
        break;
    }
    body_allocs.fetch_add(allocs_since(before), std::memory_order_relaxed);
    return result;
  });
}

}  // namespace simba::perfbench
