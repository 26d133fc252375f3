// Experiment E6 — the one-month fault log (Section 5).
//
// Paper: "within a one-month period of time, there were five extended
// IM downtimes lasting from 4 to 103 minutes. ... there were nine
// instances where MyAlertBuddy was logged out and simple re-logon
// attempts worked. In another nine instances, the hanging IM client
// had to be killed and restarted in order to re-log in. There were 36
// restarts of MyAlertBuddy by the MDC. Most of them were triggered by
// IM exceptions caused by the use of an earlier version of
// undocumented interfaces. The fault-tolerance mechanisms effectively
// recovered MyAlertBuddy from all failures except three: one failure
// was caused by a rare power outage in the office; another two were
// caused by previously unknown dialog boxes. UPS and dialog-box
// handling APIs were then used to fix the problems."
//
// Run 1 reproduces the month as deployed; run 2 applies the paper's
// fixes (UPS + the two caption/button pairs) and shows zero
// unrecovered failures.
#include <algorithm>
#include <map>

#include "common.h"
#include "fleet/user_world.h"
#include "sim/fault.h"
#include "util/log.h"

using namespace simba;
using namespace simba::bench;

namespace {

struct MonthResult {
  sim::OutagePlan im_outages;
  std::int64_t relogins = 0;
  std::int64_t client_restarts = 0;
  std::int64_t mdc_restarts = 0;
  std::int64_t nightly_rejuvenations = 0;
  std::int64_t manual_dialog_fixes = 0;
  std::map<std::string, int> manual_by_caption;
  std::int64_t power_failures = 0;
  std::int64_t alerts_sent = 0;
  std::int64_t alerts_seen = 0;
  double availability_pct = 0.0;
};

MonthResult run_month(std::uint64_t seed, bool with_ups,
                      bool captions_known) {
  const Duration month = days(30);
  ExperimentWorld world(seed);

  // Five extended IM downtimes spread over the month, lengths drawn
  // from a heavy-tailed distribution floored at 4 minutes ("extended")
  // — the paper's were 4 to 103 minutes.
  Rng outage_rng = world.sim.make_rng("im-outages");
  sim::OutagePlan im_plan;
  for (int i = 0; i < 5; ++i) {
    const TimePoint start =
        kTimeZero + days(6 * i) +
        outage_rng.uniform_duration(hours(8), days(5));
    Duration length = outage_rng.lognormal_duration(minutes(15), 1.9);
    length = std::clamp(length, minutes(4), minutes(110));
    im_plan.add(start, length);
  }
  world.im_server.set_outage_plan(im_plan);
  // Server-side session resets: with the five outage recoveries these
  // make up the paper's nine simple re-logons.
  world.im_server.set_session_reset_mtbf(days(7));

  core::MabHostOptions host_options;
  host_options.mab_options = fleet::calibrated_mab_options();
  host_options.im_client_profile = buddy_im_client_profile();
  host_options.email_client_profile = buddy_email_client_profile();
  host_options.im_client_config.event_loss_probability = 0.02;
  // One office power outage during the month.
  host_options.power_plan.add(kTimeZero + days(17) + hours(14), minutes(48));
  host_options.has_ups = with_ups;

  core::UserEndpointOptions user_options;
  user_options.name = "victor";
  Cast cast(world, std::move(host_options), user_options);
  if (captions_known) {
    // The paper's fix: the two previously unknown captions are now in
    // the Managers' registries.
    cast.host->im_manager().add_caption_pair("Debug Assertion Failed",
                                             "Abort");
    cast.host->im_manager().add_caption_pair("Catastrophic failure", "Close");
  }

  auto source = cast.make_source(world, "aladdin", seconds(45));

  // The month's two "previously unknown dialog box" incidents: system
  // modals whose captions are not in any registry (unless this run
  // applies the paper's fix), popping on days 8 and 22.
  world.sim.at(kTimeZero + days(8) + hours(10), [&] {
    gui::DialogSpec spec;
    spec.caption = "Debug Assertion Failed - msvcrt";
    spec.button = "Abort";
    spec.system_owned = true;
    cast.host->im_manager().client().pop_dialog(spec);
  }, "incident.dialog1");
  world.sim.at(kTimeZero + days(22) + hours(3), [&] {
    gui::DialogSpec spec;
    spec.caption = "Catastrophic failure 0x8000FFFF";
    spec.button = "Close";
    spec.system_owned = true;
    cast.host->im_manager().client().pop_dialog(spec);
  }, "incident.dialog2");

  // Steady alert workload all month.
  Rng workload_rng = world.sim.make_rng("workload");
  std::int64_t alerts_sent = 0;
  std::function<void()> send_next = [&] {
    if (world.sim.now() >= kTimeZero + month) return;
    core::Alert alert;
    alert.source = "aladdin";
    alert.native_category = workload_rng.chance(0.5) ? "Sensor ON"
                                                     : "Sensor OFF";
    alert.subject = "periodic " + std::to_string(alerts_sent);
    alert.high_importance = alert.native_category == "Sensor ON";
    alert.created_at = world.sim.now();
    alert.id = "month-" + std::to_string(alerts_sent);
    ++alerts_sent;
    source->send_alert(alert);
    world.sim.after(minutes(15) + workload_rng.exponential_duration(minutes(10)),
                    send_next, "workload");
  };
  world.sim.after(minutes(5), send_next, "workload");

  // The human operator: checks in every 30 minutes; a dialog that has
  // been stuck for over two hours gets clicked by hand (and counted as
  // a failure the FT mechanisms could not recover).
  std::int64_t manual_fixes = 0;
  std::map<std::string, int> manual_by_caption;
  world.sim.every(minutes(30), [&] {
    for (const auto& box : cast.host->desktop().dialogs()) {
      if (world.sim.now() - box.opened_at < hours(2)) continue;
      if (box.buttons.empty()) continue;
      // Copies: click() invalidates the dialogs() view we iterate.
      const std::string caption = box.caption;
      const std::string button = box.buttons[0];
      if (cast.host->desktop().click(caption, button)) {
        ++manual_fixes;
        manual_by_caption[caption]++;
        log_info("operator", "manually dismissed: " + caption);
      }
      break;  // one fix per visit; re-scan next visit
    }
  }, "operator");

  // Availability sampling.
  std::int64_t samples = 0, healthy_samples = 0;
  world.sim.every(minutes(1), [&] {
    ++samples;
    if (cast.host->healthy()) ++healthy_samples;
  }, "sampler");

  world.sim.run_until(kTimeZero + month);

  MonthResult result;
  result.im_outages = im_plan;
  result.relogins = cast.host->im_manager().stats().get("relogin_fixes");
  result.client_restarts =
      cast.host->im_manager().stats().get("restarts_from_sanity");
  result.mdc_restarts = cast.host->mdc().stats().get("restarts");
  result.nightly_rejuvenations =
      cast.host->stats().get("nightly_rejuvenations");
  result.manual_dialog_fixes = manual_fixes;
  result.manual_by_caption = manual_by_caption;
  result.power_failures = cast.host->stats().get("power_losses");
  result.alerts_sent = alerts_sent;
  result.alerts_seen = static_cast<std::int64_t>(cast.user->alerts_seen());
  result.availability_pct =
      samples == 0 ? 0.0
                   : 100.0 * static_cast<double>(healthy_samples) /
                         static_cast<double>(samples);
  return result;
}

void print_month(const char* label, const MonthResult& r) {
  print_section(label);
  const auto& outages = r.im_outages.outages();
  Duration shortest = outages.empty() ? Duration::zero() : outages[0].length();
  Duration longest = shortest;
  for (const auto& o : outages) {
    shortest = std::min(shortest, o.length());
    longest = std::max(longest, o.length());
  }
  print_row("extended IM downtimes", "5 (4 to 103 min)",
            strformat("%zu (%s to %s)", outages.size(),
                      format_duration(shortest).c_str(),
                      format_duration(longest).c_str()));
  print_row("logged out, re-logon worked", "9",
            std::to_string(r.relogins));
  print_row("hung IM client kill+restart", "9",
            std::to_string(r.client_restarts));
  print_row("MAB restarts by the MDC", "36 (mostly IM exceptions)",
            std::to_string(r.mdc_restarts));
  const std::int64_t unrecovered =
      r.manual_dialog_fixes + (r.power_failures > 0 ? 1 : 0);
  print_row("failures FT could not recover", "3 (1 power, 2 dialogs)",
            strformat("%lld (%lld power, %lld dialogs)",
                      static_cast<long long>(unrecovered),
                      static_cast<long long>(r.power_failures > 0 ? 1 : 0),
                      static_cast<long long>(r.manual_dialog_fixes)));
  print_row("nightly rejuvenations", "30 (one per night)",
            std::to_string(r.nightly_rejuvenations));
  print_row("alerts delivered / sent", "-",
            strformat("%lld / %lld (%.1f%%)",
                      static_cast<long long>(r.alerts_seen),
                      static_cast<long long>(r.alerts_sent),
                      r.alerts_sent == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(r.alerts_seen) /
                                static_cast<double>(r.alerts_sent)));
  print_row("MAB availability (1-min samples)", "-",
            strformat("%.2f%%", r.availability_pct));
  if (!r.manual_by_caption.empty()) {
    std::printf("\n  manually dismissed dialogs:\n");
    for (const auto& [caption, count] : r.manual_by_caption) {
      std::printf("    %dx %s\n", count, caption.c_str());
    }
  }
  std::printf("\n  IM service outage log:\n%s",
              r.im_outages.describe().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv, {"--n"});

  print_header("E6: one-month fault-injection log",
               "5 IM downtimes (4-103 min), 9 re-logons, 9 client "
               "kill+restarts, 36 MDC restarts, 3 unrecovered");

  const MonthResult as_deployed =
      run_month(options.seed, /*with_ups=*/false, /*captions_known=*/false);
  print_month("run 1: as deployed (no UPS, two captions unknown)",
              as_deployed);

  const MonthResult fixed =
      run_month(options.seed, /*with_ups=*/true, /*captions_known=*/true);
  print_month("run 2: after the paper's fixes (UPS + caption pairs)", fixed);

  // Optional robustness sweep: --n=K simulates K different months and
  // reports the spread of each counter (the paper's month is one
  // sample of these distributions).
  if (options.n > 1) {
    Summary relogins, client_restarts, mdc_restarts, availability;
    std::int64_t unrecovered_total = 0;
    for (int i = 0; i < options.n; ++i) {
      const MonthResult r = run_month(options.seed + 1000 + i, false, false);
      relogins.add(static_cast<double>(r.relogins));
      client_restarts.add(static_cast<double>(r.client_restarts));
      mdc_restarts.add(static_cast<double>(r.mdc_restarts));
      availability.add(r.availability_pct);
      unrecovered_total +=
          r.manual_dialog_fixes + (r.power_failures > 0 ? 1 : 0);
    }
    print_section(strformat("%d-month sweep (as-deployed config)",
                            options.n));
    print_row("re-logons per month", "9", relogins.report("%.1f"));
    print_row("client kill+restarts per month", "9",
              client_restarts.report("%.1f"));
    print_row("MDC restarts per month", "36", mdc_restarts.report("%.1f"));
    print_row("availability %", "-", availability.report("%.2f"));
    print_row("unrecovered per month", "3",
              strformat("%.1f avg",
                        static_cast<double>(unrecovered_total) / options.n));
  }
  return 0;
}
