// Experiment E10 — chaos-matrix sweep over the preset scenarios.
//
// Every preset ChaosScenario is realized across a fleet of per-user
// worlds (--users N --threads T, --n S extra seeds per scenario) and
// scored by the per-world InvariantChecker: submitted alerts must end
// the run delivered, explicitly failed, or recoverably in flight —
// never silently vanished — while chaos duplicates, reorders, delays,
// and drops messages, kills and hangs the daemon, and cuts power
// mid-append. The fault schedules derive only from (seed, scenario,
// horizon), so the whole sweep is reproducible and its merged report
// is bit-identical for any --threads value.
#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.h"
#include "fleet/chaos_workload.h"
#include "util/trace.h"

using namespace simba;
using namespace simba::bench;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);
  const int users = options.users > 0 ? options.users : 16;
  const int seeds = options.n > 0 ? options.n : 3;
  const int threads = std::max(1, options.threads);

  print_header("E10: chaos-matrix conservation sweep",
               "no subscribed alert is ever silently lost");
  print_row("worlds per cell", "-", std::to_string(users));
  print_row("seeds per scenario", "-", std::to_string(seeds));
  print_row("fleet worker threads", "-", std::to_string(threads));

  std::int64_t total_violations = 0;
  for (const sim::ChaosScenario& scenario : sim::ChaosScenario::presets()) {
    fleet::ChaosWorkloadOptions workload;
    workload.scenario = scenario;
    workload.world.fidelity = fleet::ModelFidelity::kFast;
    workload.world.email_check_interval = minutes(15);

    Counters merged;
    util::Trace merged_trace;
    double wall = 0.0;
    std::uint64_t events = 0;
    for (int s = 0; s < seeds; ++s) {
      fleet::FleetOptions fleet_options;
      fleet_options.shards = static_cast<std::size_t>(users);
      fleet_options.threads = threads;
      fleet_options.base_seed = options.seed + static_cast<std::uint64_t>(s);
      fleet::FleetReport report = fleet::run_fleet(
          fleet_options, [&workload](const fleet::ShardTask& task) {
            return fleet::run_chaos_shard(task, workload);
          });
      for (const auto& [name, value] : report.counters.all()) {
        merged.bump(name, value);
      }
      merged_trace.merge(std::move(report.trace));
      wall += report.wall_seconds;
      events += report.events_processed;
    }

    print_section("scenario: " + scenario.name);
    const std::int64_t submitted = merged.get("invariant.submitted");
    const std::int64_t violations = merged.get("invariant.violations.total");
    total_violations += violations;
    print_row("alerts submitted", "-", std::to_string(submitted));
    print_row("delivered / failed / in-flight", "-",
              strformat("%lld / %lld / %lld",
                        static_cast<long long>(merged.get(
                            "invariant.delivered")),
                        static_cast<long long>(merged.get("invariant.failed")),
                        static_cast<long long>(
                            merged.get("invariant.in_flight"))));
    print_row("duplicate sightings", "-",
              std::to_string(merged.get("invariant.duplicate_sightings")),
              "legal under timestamp-based dedup");
    print_row("chaos injected", "-",
              strformat("dup %lld, reorder %lld, spike %lld, drop %lld",
                        static_cast<long long>(merged.get("chaos.duplicate")),
                        static_cast<long long>(merged.get("chaos.reorder")),
                        static_cast<long long>(
                            merged.get("chaos.delay_spike")),
                        static_cast<long long>(
                            merged.get("dropped.chaos_late_loss"))));
    print_row("process/machine faults", "-",
              strformat("kill %lld, hang %lld, reboot %lld, power %lld, "
                        "torn %lld",
                        static_cast<long long>(
                            merged.get("chaos.mab_crashes")),
                        static_cast<long long>(merged.get("chaos.mab_hangs")),
                        static_cast<long long>(merged.get("chaos.reboots")),
                        static_cast<long long>(merged.get("power_losses")),
                        static_cast<long long>(
                            merged.get("chaos.torn_appends"))));
    print_row("invariant violations", "0", std::to_string(violations),
              violations == 0 ? "conservation holds" : "CONTRACT BROKEN");
    print_row("wall-clock", "-", strformat("%.2f s", wall));
    print_row("kernel events per second", "-",
              strformat("%.0f", events / std::max(wall, 1e-9)));
    print_section("scenario " + scenario.name +
                  ": per-stage latency (merged lifecycle trace)");
    std::printf("%s", merged_trace.stage_report().c_str());
  }

  print_section("verdict");
  print_row("peak RSS", "-",
            strformat("%.1f MiB", peak_rss_bytes() / (1024.0 * 1024.0)));
  std::printf("  %s\n",
              total_violations == 0
                  ? "conservation held across the whole matrix"
                  : "VIOLATIONS DETECTED — see scenario rows above");
  return total_violations == 0 ? 0 : 1;
}
