// Experiment E8 — fault-tolerance mechanism ablation.
//
// Paper (Section 5 summary): "the fault-tolerance techniques for
// maintaining a highly available MyAlertBuddy are crucial and
// effective." This bench quantifies each mechanism's contribution by
// turning it off under an accelerated fault load (one week with
// several failures a day) and measuring MAB availability, delivery,
// timeliness, and outright alert loss.
//
// Fault load (accelerated vs the E6 month):
//   * IM-exception crashes of the MAB every day or two,
//   * a leaky MAB (~60 MB/h): soft limit ~4.6 h uptime, hard hang ~9.6 h,
//   * blocking client dialogs every ~3 hours,
//   * slow per-alert processing (20 s) so the crash window that
//     pessimistic logging protects is visible at this timescale.
#include <cstdlib>
#include <vector>

#include "common.h"
#include "fleet/user_world.h"

using namespace simba;
using namespace simba::bench;

namespace {

struct Config {
  std::string name;
  bool watchdog = true;
  bool logging = true;
  bool rejuvenation = true;
  bool stabilization = true;
  bool monkey = true;
};

struct RunResult {
  double availability_pct = 0.0;
  double delivered_pct = 0.0;
  double on_time_pct = 0.0;  // seen within 10 minutes
  double via_im_pct = 0.0;   // first sighting on the primary channel
  std::int64_t lost = 0;
  std::int64_t mdc_restarts = 0;
};

RunResult run(std::uint64_t seed, const Config& config) {
  const Duration horizon = days(7);
  ExperimentWorld world(seed);
  world.im_server.set_session_reset_mtbf(days(2));

  core::MabHostOptions host_options;
  host_options.mab_options = fleet::calibrated_mab_options();
  host_options.mab_options.pessimistic_logging = config.logging;
  host_options.mab_options.self_stabilization = config.stabilization;
  host_options.nightly_rejuvenation = config.rejuvenation;
  host_options.watchdog_enabled = config.watchdog;
  host_options.monkey_enabled = config.monkey;
  host_options.mab_options.processing_delay = seconds(20);
  host_options.mab_options.leak_mb_per_hour = 60.0;
  host_options.mab_options.leak_mb_per_alert = 0.01;

  gui::FaultProfile im_profile;
  im_profile.op_exception_probability = 2.5e-4;  // a crash every day or two
  im_profile.exception_op = "fetch_unread";
  im_profile.leak_mb_per_hour = 4.0;
  im_profile.mean_time_to_dialog = hours(3);
  im_profile.dialog_pool = {
      gui::DialogSpec{"Connection lost", "OK", 0.5, true, false},
      gui::DialogSpec{"Warning: low disk space", "OK", 0.5, false, false},
  };
  host_options.im_client_profile = im_profile;
  gui::FaultProfile email_profile;
  email_profile.mean_time_to_dialog = hours(9);
  email_profile.dialog_pool = {
      gui::DialogSpec{"Send/Receive error", "OK", 1.0, true, false},
  };
  host_options.email_client_profile = email_profile;

  Cast cast(world, std::move(host_options));
  auto source = cast.make_source(world, "aladdin", seconds(45));

  // Alert workload: one critical alert every ~2 minutes.
  Rng rng = world.sim.make_rng("workload");
  std::int64_t sent = 0;
  std::vector<TimePoint> sent_at;
  std::function<void()> send_next = [&] {
    if (world.sim.now() >= kTimeZero + horizon) return;
    core::Alert alert;
    alert.source = "aladdin";
    alert.native_category = "Sensor ON";
    alert.subject = "alert";
    alert.high_importance = true;
    alert.created_at = world.sim.now();
    alert.id = "e8-" + std::to_string(sent);
    ++sent;
    sent_at.push_back(world.sim.now());
    source->send_alert(alert);
    world.sim.after(minutes(1) + rng.exponential_duration(minutes(1)),
                    send_next, "workload");
  };
  world.sim.after(minutes(1), send_next, "workload");

  std::int64_t samples = 0, healthy = 0;
  world.sim.every(minutes(1), [&] {
    ++samples;
    if (cast.host->healthy()) ++healthy;
  }, "sampler");

  world.sim.run_until(kTimeZero + horizon + hours(6));

  RunResult result;
  result.availability_pct =
      100.0 * static_cast<double>(healthy) / std::max<std::int64_t>(1, samples);
  std::int64_t seen = 0, on_time = 0;
  for (std::int64_t i = 0; i < sent; ++i) {
    const auto when = cast.user->first_seen("e8-" + std::to_string(i));
    if (!when) continue;
    ++seen;
    if (*when - sent_at[static_cast<std::size_t>(i)] <= minutes(10)) {
      ++on_time;
    }
  }
  result.delivered_pct =
      100.0 * static_cast<double>(seen) / std::max<std::int64_t>(1, sent);
  result.on_time_pct =
      100.0 * static_cast<double>(on_time) / std::max<std::int64_t>(1, sent);
  result.lost = sent - seen;
  result.via_im_pct =
      100.0 * static_cast<double>(cast.user->stats().get("seen_via_im")) /
      std::max<std::int64_t>(1, sent);
  result.mdc_restarts = cast.host->mdc().stats().get("restarts");
  if (std::getenv("E8_DEBUG") != nullptr) {
    std::fprintf(stderr, "client stats:\n%s\nmonkey stats:\n%s\n",
                 cast.host->im_manager().client().stats().report().c_str(),
                 cast.host->im_manager().stats().report().c_str());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv, {});

  print_header("E8: fault-tolerance ablation (accelerated one-week run)",
               "\"the fault-tolerance techniques ... are crucial and "
               "effective\"");
  std::printf(
      "%-34s | avail%%  | delivered%% | on-time(10m)%% | via IM%% | lost | MDC "
      "restarts\n",
      "configuration");
  std::printf(
      "-----------------------------------+---------+------------+---------------+---------+------+------------\n");

  const Config configs[] = {
      {"full SIMBA fault tolerance", true, true, true, true, true},
      {"no MDC watchdog", false, true, true, true, true},
      {"no pessimistic logging", true, false, true, true, true},
      {"no nightly rejuvenation", true, true, false, true, true},
      {"no self-stabilization", true, true, true, false, true},
      {"no rejuvenation + no stabilization", true, true, false, false, true},
      {"no monkey thread", true, true, true, true, false},
      {"nothing (bare daemon)", false, false, false, false, false},
  };
  for (const Config& config : configs) {
    const RunResult r = run(options.seed, config);
    std::printf("%-34s | %6.2f%% | %9.2f%% | %12.2f%% | %6.2f%% | %4lld | %lld\n",
                config.name.c_str(), r.availability_pct, r.delivered_pct,
                r.on_time_pct, r.via_im_pct, static_cast<long long>(r.lost),
                static_cast<long long>(r.mdc_restarts));
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: availability collapses without the watchdog "
      "(nothing restarts the\ndaemon after its first crash); acked alerts "
      "are lost for good without pessimistic\nlogging; disabling "
      "rejuvenation + self-stabilization lets the leak wedge the daemon\n"
      "until the watchdog's slower heartbeat catches it; without the monkey "
      "thread blocking\ndialogs knock out the primary IM channel — delivery "
      "survives on the mode's SMS/email\nfallbacks (the architecture masking "
      "its own component failure), visible as the via-IM%% drop.\n");
  return 0;
}
