// Experiment E3 — alert proxy routing through MyAlertBuddy (Section 5).
//
// Paper: "An alert proxy was set up to monitor the Florida recount
// numbers and the availability of the PlayStation2 game consoles by
// polling the associated Web sites. When the proxy detected a change,
// it sent out an alert, which on average took 2.5 seconds to route
// through MyAlertBuddy to reach the user."
//
// Measured: from the proxy's change-detection (alert creation) to the
// user's first sighting of the alert on her IM.
#include "common.h"
#include "proxy/proxy.h"

using namespace simba;
using namespace simba::bench;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv, {"--n"});
  const int n = options.n > 0 ? options.n : 150;

  ExperimentWorld world(options.seed);
  Cast cast(world);
  auto source = cast.make_source(world, "proxy-host");

  proxy::WebDirectory web(world.sim);
  proxy::AlertProxy alert_proxy(world.sim, web);

  // Track proxy alerts: creation time at detection, then user sighting.
  std::map<std::string, TimePoint> detected;
  Summary route_time;
  Summary florida_time, ps2_time;
  auto sink = [&](const core::Alert& alert) {
    detected[alert.id] = alert.created_at;
    source->send_alert(alert);
  };

  web.put("http://election.example/florida", "<v>Bush +537</v>");
  web.put("http://shop.example/ps2", "<s>SOLD OUT</s>");
  proxy::AlertProxy::WatchConfig florida;
  florida.url = "http://election.example/florida";
  florida.poll_interval = seconds(30);
  florida.start_keyword = "<v>";
  florida.end_keyword = "</v>";
  florida.source_name = "alert.proxy.election";
  florida.category = "Election";
  florida.high_importance = true;
  alert_proxy.add_watch(florida, sink);
  proxy::AlertProxy::WatchConfig ps2 = florida;
  ps2.url = "http://shop.example/ps2";
  ps2.start_keyword = "<s>";
  ps2.end_keyword = "</s>";
  ps2.source_name = "alert.proxy.ps2";
  ps2.category = "PlayStation2";
  alert_proxy.add_watch(ps2, sink);

  // Mutate the two pages on a schedule.
  Rng rng = world.sim.make_rng("mutations");
  TimePoint when = world.sim.now() + minutes(2);
  for (int i = 0; i < n; ++i) {
    when += rng.exponential_duration(minutes(3)) + seconds(40);
    if (i % 2 == 0) {
      web.put_at(when, "http://election.example/florida",
                 strformat("<v>Bush +%d</v>", 537 - i));
    } else {
      web.put_at(when, "http://shop.example/ps2",
                 strformat("<s>%s %d</s>",
                           i % 4 == 1 ? "IN STOCK" : "SOLD OUT", i));
    }
  }
  world.sim.run_for(minutes(4) * n + hours(1));

  for (const auto& [id, at] : detected) {
    const auto seen = cast.user->first_seen(id);
    if (!seen) continue;
    const double secs = to_seconds(*seen - at);
    route_time.add(secs);
    // Proxy ids are opaque; split by recorded category via sighting
    // channel is unnecessary — both sites share the same path.
  }
  (void)florida_time;
  (void)ps2_time;

  print_header(
      "E3: proxy-detected change routed through MyAlertBuddy to the user",
      "\"on average took 2.5 seconds to route through MyAlertBuddy to "
      "reach the user\"");
  print_summary_seconds("detection -> user (IM popup)", "avg 2.5 s",
                        route_time);
  print_row("alerts generated by proxy", "-",
            std::to_string(detected.size()));
  print_row("alerts reaching the user", "-",
            std::to_string(route_time.count()),
            "rest were lost/delayed past horizon");
  std::printf("\nDistribution:\n");
  Histogram hist({1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0});
  for (double s : route_time.samples()) hist.add(s);
  std::printf("%s", hist.render().c_str());
  return 0;
}
