// Golden-trace suite: the lifecycle trace of a single-user portal run
// is a pure function of the seed, so its canonical JSONL export is
// byte-identical run over run, platform over platform. Each seed's
// trace is checked against a golden file under testdata/traces/.
//
// A second family pins one small fleet run per workload — portal mail,
// chaos, and the defended storm — by both its correctness report and
// its JSONL trace, so any change to how arrivals are generated,
// submitted, or scored shows up as a byte diff.
//
// When a deliberate change to the alert path alters the traces,
// regenerate the goldens and review the diff like any other code:
//   ./build/tests/trace_test --regen
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>

#include "fleet/chaos_workload.h"
#include "fleet/fleet.h"
#include "fleet/portal_workload.h"
#include "fleet/storm_workload.h"
#include "sim/chaos.h"
#include "test_world.h"
#include "util/trace.h"

namespace simba::fleet {
namespace {

bool g_regen = false;

const char* const kTestdata = SIMBA_TRACE_TESTDATA;

// Small but complete: IM-with-ack traffic through the fast loss-free
// models, dense enough that classify/aggregate/filter/route, delivery
// blocks, log appends, and bus hops all appear in the trace.
PortalWorkloadOptions golden_workload() {
  PortalWorkloadOptions workload;
  workload.traffic = Traffic::kSourceIm;
  workload.world = testing::fast_fleet_world();
  workload.world.trace = true;
  workload.alerts_per_user_day = 48.0;
  workload.horizon = hours(2);
  workload.drain = minutes(30);
  return workload;
}

std::string run_trace_jsonl(std::uint64_t seed) {
  const PortalWorkloadOptions workload = golden_workload();
  const ShardTask task{0, shard_seed(seed, 0)};
  const ShardResult result = run_portal_shard(task, workload);
  return result.trace.to_jsonl();
}

std::string golden_path(std::uint64_t seed) {
  return std::string(kTestdata) + "/portal_seed" + std::to_string(seed) +
         ".jsonl";
}

/// Compares `actual` with the golden file at `path`, or rewrites the
/// file under --regen.
void expect_matches_golden(const std::string& path, const std::string& actual) {
  if (g_regen) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with: trace_test --regen";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), actual)
      << path << " drifted; if the behaviour changed deliberately, "
      << "regenerate with: trace_test --regen and review the diff";
}

class GoldenTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenTraceTest, PortalRunMatchesGoldenByteForByte) {
  const std::uint64_t seed = GetParam();
  const std::string jsonl = run_trace_jsonl(seed);
  ASSERT_FALSE(jsonl.empty());

  expect_matches_golden(golden_path(seed), jsonl);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenTraceTest,
                         ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- One small fleet run per workload ---------------------------------------

// Sized to keep each golden small yet exercise the workload's whole
// path: two shards (pinning the shard-ordered merge and shard-qualified
// alert ids) for portal mail and chaos; one storm shard whose tight
// admission buckets still force coalescing into a digest.
FleetReport run_workload_fleet(const std::string& workload,
                               std::uint64_t seed) {
  FleetOptions fleet;
  fleet.shards = 2;
  fleet.base_seed = seed;
  if (workload == "portal_email") {
    PortalWorkloadOptions portal;
    portal.world = testing::fast_fleet_world();
    portal.world.trace = true;
    portal.alerts_per_user_day = 24.0;
    portal.horizon = hours(2);
    portal.drain = minutes(30);
    return run_fleet(fleet, [&portal](const ShardTask& task) {
      return run_portal_shard(task, portal);
    });
  }
  if (workload == "chaos") {
    ChaosWorkloadOptions chaos;
    chaos.world = testing::fast_fleet_world();
    chaos.scenario = sim::ChaosScenario::flaky_network();
    chaos.alerts_per_user_day = 24.0;
    chaos.horizon = hours(2);
    chaos.drain = minutes(30);
    return run_fleet(fleet, [&chaos](const ShardTask& task) {
      return run_chaos_shard(task, chaos);
    });
  }
  fleet.shards = 1;
  StormWorkloadOptions storm;
  storm.world = testing::fast_fleet_world();
  storm.world.overload = storm_defenses();
  storm.world.overload.per_user.burst = 4.0;
  storm.world.overload.per_source.burst = 2.0;
  storm.horizon = minutes(30);
  storm.drain = minutes(30);
  storm.background_per_day = 24.0;
  storm.critical_per_day = 96.0;
  storm.sensor_cascades = 1;
  storm.cascade_size = 6;
  storm.poll_bursts = 1;
  storm.burst_size = 4;
  return run_fleet(fleet, [&storm](const ShardTask& task) {
    return run_storm_shard(task, storm);
  });
}

// The workload is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, which ASLR moves, and ctest
// discovery puts the printed parameter into each test's name.
class WorkloadGoldenTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(WorkloadGoldenTest, ReportAndTraceMatchGoldenByteForByte) {
  const auto& [workload, seed] = GetParam();
  const FleetReport report = run_workload_fleet(workload, seed);
  ASSERT_GT(report.counters.get("alerts.delivered"), 0);
  const std::string stem = std::string(kTestdata) + "/" + workload + "_seed" +
                           std::to_string(seed);
  expect_matches_golden(stem + ".json", report.correctness_json() + "\n");
  expect_matches_golden(stem + ".jsonl", report.trace.to_jsonl());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadGoldenTest,
    ::testing::Combine(::testing::Values("portal_email", "chaos", "storm"),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(TraceDeterminismTest, RerunIsByteIdentical) {
  // The in-process half of the golden guarantee: two runs in the same
  // binary agree exactly, JSONL and per-stage latency report alike.
  EXPECT_EQ(run_trace_jsonl(7), run_trace_jsonl(7));

  const PortalWorkloadOptions workload = golden_workload();
  const ShardTask task{0, shard_seed(7, 0)};
  const ShardResult a = run_portal_shard(task, workload);
  const ShardResult b = run_portal_shard(task, workload);
  EXPECT_EQ(a.trace.stage_report(), b.trace.stage_report());
}

TEST(TraceContentTest, CoversEveryTracedComponent) {
  const PortalWorkloadOptions workload = golden_workload();
  const ShardTask task{0, shard_seed(1, 0)};
  const ShardResult result = run_portal_shard(task, workload);

  std::set<std::string> components;
  for (const util::Span& span : result.trace.spans()) {
    components.insert(span.component);
  }
  for (const char* component : {"bus", "log", "mab", "delivery"}) {
    EXPECT_TRUE(components.count(component) > 0)
        << "no '" << component << "' spans in a full portal run";
  }

  // Stage latencies are derivable and carry percentile support.
  const auto latency = result.trace.stage_latency();
  ASSERT_TRUE(latency.count("delivery.deliver") > 0);
  const Summary& deliver = latency.at("delivery.deliver");
  EXPECT_GT(deliver.count(), 0u);
  EXPECT_GE(deliver.percentile(99), deliver.percentile(50));
}

}  // namespace
}  // namespace simba::fleet

// Custom main: strip our --regen flag before handing argv to gtest.
int main(int argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--regen") {
      simba::fleet::g_regen = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
