// Experiment E5 — WISH location alert end-to-end (Section 5).
//
// Paper: "From the time the laptop sends out the information
// wirelessly to the time the subscriber gets notified by an IM alert,
// the average delivery time was measured to be 5 seconds."
//
// A tracked user walks between building zones; each zone change is
// eventually picked up by the WISH client's periodic report, estimated
// by the server, written into the Soft-State Store, turned into a
// location alert, and routed via SIMBA to the subscriber's IM.
#include "common.h"
#include "sss/sss.h"
#include "wish/wish.h"

using namespace simba;
using namespace simba::bench;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv, {"--n"});
  const int n = options.n > 0 ? options.n : 120;

  ExperimentWorld world(options.seed);
  Cast cast(world);
  auto source = cast.make_source(world, "wish");

  wish::FloorMap map;
  map.add_ap(wish::AccessPoint{"ap-ne", {10, 10}, "B31/NE"});
  map.add_ap(wish::AccessPoint{"ap-sw", {90, 60}, "B31/SW"});
  map.add_ap(wish::AccessPoint{"ap-lab", {170, 10}, "B31/Lab"});
  wish::RadioModel radio;
  radio.shadow_sigma_db = 3.0;
  sss::SssServer store(world.sim, "wish-server");
  wish::WishServer server(world.sim, map, radio, store);
  server.set_user_refresh(seconds(10), 2);
  wish::WishAlertService alerts(world.sim, store);

  // Alerts route through SIMBA; pair each alert with the walk step
  // that caused it (steps are minutes apart, the chain takes seconds).
  std::vector<TimePoint> moves;
  std::map<std::string, TimePoint> move_for;
  alerts.subscribe("victor", "walker", {}, [&](const core::Alert& alert) {
    if (!moves.empty()) move_for[alert.id] = moves.back();
    source->send_alert(alert);
  });

  wish::WishClient client(world.sim, map, radio, server, "walker",
                          seconds(4));
  const wish::Point spots[] = {{10, 10}, {90, 60}, {170, 10}};
  client.set_position(spots[0]);
  moves.push_back(world.sim.now());
  client.start();

  Rng rng = world.sim.make_rng("walk");
  for (int i = 1; i < n; ++i) {
    world.sim.run_for(minutes(2) + rng.exponential_duration(minutes(1)));
    moves.push_back(world.sim.now());
    client.set_position(spots[i % 3]);
  }
  world.sim.run_for(minutes(5));
  client.stop();

  Summary end_to_end;
  for (const auto& [id, moved_at] : move_for) {
    const auto seen = cast.user->first_seen(id);
    if (!seen) continue;
    const double secs = to_seconds(*seen - moved_at);
    if (secs > 0 && secs < 120) end_to_end.add(secs);
  }

  print_header(
      "E5: WISH wireless report -> location estimate -> SSS -> alert -> "
      "SIMBA IM -> subscriber",
      "\"the average delivery time was measured to be 5 seconds\"");
  print_summary_seconds("zone change -> subscriber IM", "avg 5 s",
                        end_to_end);
  print_row("zone changes walked", "-", std::to_string(n));
  print_row("location alerts seen", "-", std::to_string(end_to_end.count()),
            "shadowing noise can blur a boundary crossing");
  std::printf("\nPer-hop budget (mean):\n");
  std::printf("  wait for next 4 s report cycle      ~ 2.0 s\n");
  std::printf("  wireless + LAN hop to WISH server   ~ 0.1 s\n");
  std::printf("  SSS write -> alert service           ~ 0.0 s\n");
  std::printf("  SIMBA IM to buddy + log + process   ~ 1.5 s\n");
  std::printf("  buddy -> subscriber IM               ~ 0.7 s\n");
  std::printf("\nDistribution:\n");
  Histogram hist({2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0});
  for (double s : end_to_end.samples()) hist.add(s);
  std::printf("%s", hist.render().c_str());
  return 0;
}
