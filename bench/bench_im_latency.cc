// Experiment E1 — one-way IM alert delivery time (Section 5).
//
// Paper: "The one-way IM delivery time from any of the alert sources
// to MyAlertBuddy is typically less than one second."
//
// Workload: each of the five source types sends alerts through the
// SIMBA library's IM-with-ack channel to the buddy; we measure from
// alert creation at the source to the instant MyAlertBuddy accepts the
// IM off its client.
#include <map>

#include "common.h"

using namespace simba;
using namespace simba::bench;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv, {"--n"});
  const int n = options.n > 0 ? options.n : 400;

  ExperimentWorld world(options.seed);
  Cast cast(world);

  const char* source_names[] = {"aladdin", "wish", "desktop.assistant",
                                "alert.proxy.election", "alerts@yahoo.example"};
  std::vector<std::unique_ptr<core::SourceEndpoint>> sources;
  for (const char* name : source_names) {
    sources.push_back(cast.make_source(world, name));
  }

  // Observe arrivals at the MAB.
  std::map<std::string, TimePoint> created;
  Summary one_way;
  std::map<std::string, Summary> per_source;
  cast.host->set_alert_observer(
      [&](const core::Alert& alert, TimePoint received) {
        const auto it = created.find(alert.id);
        if (it == created.end()) return;
        const double seconds_taken = to_seconds(received - it->second);
        one_way.add(seconds_taken);
        per_source[alert.source].add(seconds_taken);
      });

  Rng rng = world.sim.make_rng("workload");
  for (int i = 0; i < n; ++i) {
    const std::size_t which = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1));
    world.sim.run_for(rng.exponential_duration(seconds(20)));
    core::Alert alert;
    alert.source = source_names[which];
    alert.native_category = "Sensor ON";
    alert.subject = "alert " + std::to_string(i);
    alert.body = "payload";
    alert.high_importance = true;
    alert.created_at = world.sim.now();
    alert.id = "e1-" + std::to_string(i);
    created[alert.id] = world.sim.now();
    sources[which]->send_alert(alert);
  }
  world.sim.run_for(minutes(5));

  print_header("E1: one-way IM delivery time (alert source -> MyAlertBuddy)",
               "\"typically less than one second\"");
  print_summary_seconds("one-way IM delivery", "< 1 s", one_way);
  const double under_1s =
      one_way.empty()
          ? 0.0
          : 100.0 * [&] {
              int c = 0;
              for (double s : one_way.samples()) c += (s < 1.0);
              return static_cast<double>(c) / one_way.count();
            }();
  print_row("fraction under 1 s", "\"typically\"",
            strformat("%.1f%%", under_1s));
  print_section("per source type");
  for (auto& [source, summary] : per_source) {
    print_summary_seconds("  " + source, "< 1 s", summary);
  }
  std::printf("\nDistribution of one-way times:\n");
  Histogram hist({0.25, 0.5, 0.75, 1.0, 1.5, 2.0});
  for (double s : one_way.samples()) hist.add(s);
  std::printf("%s", hist.render().c_str());
  return 0;
}
