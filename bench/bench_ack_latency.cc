// Experiment E2 — acknowledged delivery time with pessimistic logging
// (Section 5).
//
// Paper: "With pessimistic logging, the alert source receives an
// acknowledgement in about 1.5 seconds."
//
// We measure the source-visible ack round trip (send -> MAB logs ->
// MAB acks -> source engine completes), and ablate the log-write cost
// to show where the extra half second over the one-way time goes.
#include "common.h"
#include "fleet/user_world.h"

using namespace simba;
using namespace simba::bench;

namespace {

Summary run_ack_measurement(std::uint64_t seed, int n, bool logging) {
  ExperimentWorld world(seed);
  core::MabHostOptions host_options;
  host_options.mab_options = fleet::calibrated_mab_options();
  host_options.mab_options.pessimistic_logging = logging;
  // The pessimistic log write itself keeps AlertLog's default 250 ms.
  Cast cast(world, std::move(host_options));

  auto source = cast.make_source(world, "aladdin");
  Rng rng = world.sim.make_rng("workload");
  Summary ack_rtt;
  for (int i = 0; i < n; ++i) {
    world.sim.run_for(rng.exponential_duration(seconds(15)));
    core::Alert alert;
    alert.source = "aladdin";
    alert.native_category = "Sensor ON";
    alert.subject = "ack bench " + std::to_string(i);
    alert.high_importance = true;
    alert.created_at = world.sim.now();
    alert.id = strformat("e2-%d-%d", logging ? 1 : 0, i);
    const TimePoint sent = world.sim.now();
    source->send_alert(alert, [&, sent](const core::DeliveryOutcome& o) {
      if (o.delivered && o.block_used == 0) {
        ack_rtt.add(to_seconds(o.completed_at - sent));
      }
    });
  }
  world.sim.run_for(minutes(5));
  return ack_rtt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv, {"--n"});
  const int n = options.n > 0 ? options.n : 300;

  const Summary with_logging =
      run_ack_measurement(options.seed, n, /*logging=*/true);
  const Summary without_logging =
      run_ack_measurement(options.seed, n, /*logging=*/false);

  print_header(
      "E2: source-visible acknowledgement latency",
      "\"With pessimistic logging, the alert source receives an "
      "acknowledgement in about 1.5 seconds.\"");
  print_summary_seconds("ack RTT, pessimistic logging ON", "~1.5 s",
                        with_logging);
  print_summary_seconds("ack RTT, logging OFF (ablation)", "(not measured)",
                        without_logging);
  print_row("log-write contribution", "~0.25-0.5 s",
            strformat("%.2f s (mean delta)",
                      with_logging.mean() - without_logging.mean()),
            "ack is held until the disk write completes");
  return 0;
}
