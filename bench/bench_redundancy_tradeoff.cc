// Experiment E7 — delivery strategies: timeliness vs irritation
// (Sections 2.3 and 3).
//
// Paper: "Aladdin by default sends all alerts as two emails and two
// cell phone SMS messages. However, such heavy use of redundancy has
// not worked well. For critical alerts, there is still no guarantee
// that any of the four messages can reach the user in time. For less
// critical alerts, four messages per alert are irritating and
// cumbersome." SIMBA's delivery modes (IM-with-ack, SMS and email as
// ordered fallbacks) aim to beat that trade-off.
//
// Each strategy runs the same critical-alert workload against the same
// user model (desk-away windows, phone coverage gaps, periodic email
// checks). Reported: on-time delivery at several deadlines, messages
// per alert (irritation), duplicates the user had to discard.
#include "common.h"
#include "fleet/user_world.h"
#include "core/baseline.h"

using namespace simba;
using namespace simba::bench;

namespace {

struct StrategyResult {
  std::string name;
  int alerts = 0;
  int seen = 0;
  int on_time_1m = 0;
  int on_time_5m = 0;
  int on_time_30m = 0;
  double messages_per_alert = 0.0;
  double duplicates_per_alert = 0.0;
  Summary time_to_seen;
};

core::UserEndpointOptions busy_user(std::uint64_t seed) {
  core::UserEndpointOptions options;
  options.name = "victor";
  options.email_check_interval = minutes(45);
  options.ack_reaction_mean = seconds(6);
  // Away from the desk ~35% of the time in multi-hour stretches.
  Rng away_rng(seed ^ 0x517);
  options.away_plan = sim::OutagePlan::generate(
      away_rng, days(7), hours(4), /*down_median=*/hours(1.6), 0.7);
  // Phone out of coverage / charging ~8% of the time.
  Rng phone_rng(seed ^ 0x9b1);
  options.phone_outage_plan = sim::OutagePlan::generate(
      phone_rng, days(7), hours(20), /*down_median=*/hours(1.2), 0.6);
  return options;
}

struct Workload {
  std::vector<TimePoint> when;
};

Workload make_workload(int n) {
  // Critical alerts arriving around the clock, ~30 min apart.
  Workload w;
  TimePoint t = kTimeZero + minutes(10);
  Rng rng(777);
  for (int i = 0; i < n; ++i) {
    t += minutes(10) + rng.exponential_duration(minutes(20));
    w.when.push_back(t);
  }
  return w;
}

void score(StrategyResult& result, core::UserEndpoint& user,
           const Workload& workload, const std::string& id_prefix) {
  result.alerts = static_cast<int>(workload.when.size());
  double total_sightings = 0.0;
  for (std::size_t i = 0; i < workload.when.size(); ++i) {
    const std::string id = id_prefix + std::to_string(i);
    total_sightings += static_cast<double>(user.sightings(id));
    const auto seen = user.first_seen(id);
    if (!seen) continue;
    ++result.seen;
    const Duration took = *seen - workload.when[i];
    result.time_to_seen.add(took);
    if (took <= minutes(1)) ++result.on_time_1m;
    if (took <= minutes(5)) ++result.on_time_5m;
    if (took <= minutes(30)) ++result.on_time_30m;
    result.duplicates_per_alert +=
        static_cast<double>(user.sightings(id) - 1);
  }
  result.duplicates_per_alert /= std::max(1, result.alerts);
  // The irritation metric: messages the user actually had to deal with
  // (the same accounting for every strategy; channel losses reduce it).
  result.messages_per_alert = total_sightings / std::max(1, result.alerts);
}

StrategyResult run_legacy(std::uint64_t seed, const Workload& workload,
                          core::LegacyDeliverer::Policy policy) {
  ExperimentWorld world(seed);
  auto user_options = busy_user(seed);
  core::UserEndpoint user(world.sim, world.bus, world.im_server,
                          world.email_server, world.sms_gateway,
                          user_options);
  user.start();
  world.sim.run_for(seconds(10));

  core::LegacyDeliverer deliverer(world.email_server, "aladdin@svc.example",
                                  policy);
  deliverer.set_user_email(user.email_account());
  deliverer.set_user_sms(user.sms_address());

  const std::string prefix =
      std::string("legacy-") + core::to_string(policy) + "-";
  std::int64_t messages = 0;
  for (std::size_t i = 0; i < workload.when.size(); ++i) {
    const std::size_t index = i;
    world.sim.at(workload.when[i], [&, index] {
      core::Alert alert;
      alert.source = "aladdin";
      alert.native_category = "Sensor ON";
      alert.subject = "Basement Water Sensor ON";
      alert.high_importance = true;
      alert.created_at = world.sim.now();
      alert.id = prefix + std::to_string(index);
      messages += deliverer.send(alert);
    });
  }
  world.sim.run_until(workload.when.back() + hours(8));

  StrategyResult result;
  result.name = strformat("%s (%0.1f submitted/alert)",
                          core::to_string(policy),
                          static_cast<double>(messages) /
                              std::max<std::size_t>(1, workload.when.size()));
  score(result, user, workload, prefix);
  return result;
}

StrategyResult run_simba(std::uint64_t seed, const Workload& workload) {
  ExperimentWorld world(seed);
  core::MabHostOptions host_options;
  host_options.mab_options = fleet::calibrated_mab_options();
  Cast cast(world, std::move(host_options), busy_user(seed));
  auto source = cast.make_source(world, "aladdin", seconds(45));

  const std::string prefix = "simba-";
  for (std::size_t i = 0; i < workload.when.size(); ++i) {
    const std::size_t index = i;
    world.sim.at(workload.when[i], [&, index] {
      core::Alert alert;
      alert.source = "aladdin";
      alert.native_category = "Sensor ON";
      alert.subject = "Basement Water Sensor ON";
      alert.high_importance = true;
      alert.created_at = world.sim.now();
      alert.id = prefix + std::to_string(index);
      source->send_alert(alert);
    });
  }
  world.sim.run_until(workload.when.back() + hours(8));

  StrategyResult result;
  result.name = "SIMBA Urgent mode (IM+ack -> SMS -> email)";
  score(result, *cast.user, workload, prefix);
  return result;
}

void print_strategy(const StrategyResult& r) {
  std::printf("%-42s | %5.1f%% | %5.1f%% | %5.1f%% | %8.2f | %6.2f | %s\n",
              r.name.c_str(),
              100.0 * r.on_time_1m / std::max(1, r.alerts),
              100.0 * r.on_time_5m / std::max(1, r.alerts),
              100.0 * r.on_time_30m / std::max(1, r.alerts),
              r.messages_per_alert, r.duplicates_per_alert,
              (r.time_to_seen.empty()
                   ? std::string("-")
                   : strformat("%.0fs/%.0fs", r.time_to_seen.percentile(50),
                               r.time_to_seen.percentile(90)))
                  .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv, {"--n"});
  const int n = options.n > 0 ? options.n : 250;
  const Workload workload = make_workload(n);

  print_header(
      "E7: delivery strategy trade-off (timeliness vs irritation)",
      "2-email+2-SMS \"has not worked well\": no timeliness guarantee, and "
      "\"four messages per alert are irritating\"");
  std::printf(
      "%-42s | <=1min | <=5min | <=30min | msgs/alt | dups  | p50/p90\n",
      "strategy");
  std::printf(
      "-------------------------------------------+--------+--------+---------+----------+-------+--------\n");

  print_strategy(run_legacy(options.seed, workload,
                            core::LegacyDeliverer::Policy::kEmailOnly));
  print_strategy(run_legacy(options.seed, workload,
                            core::LegacyDeliverer::Policy::kSmsOnly));
  print_strategy(
      run_legacy(options.seed, workload,
                 core::LegacyDeliverer::Policy::kDoubleEmailDoubleSms));
  print_strategy(run_simba(options.seed, workload));

  std::printf(
      "\nExpected shape: at the median SIMBA is an order of magnitude faster "
      "(IM pops up in\nseconds); when the user is away it trails the "
      "shotgun 2E+2S by one fallback timeout\nwhile sending ~1.4 messages "
      "per alert instead of 4 and leaving ~0.4 duplicates\ninstead of ~3 — "
      "the paper's point: comparable dependability without the irritation.\n");
  return 0;
}
