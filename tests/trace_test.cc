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
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

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

ChaosWorkloadOptions golden_chaos_workload() {
  ChaosWorkloadOptions chaos;
  chaos.world = testing::fast_fleet_world();
  chaos.scenario = sim::ChaosScenario::flaky_network();
  chaos.alerts_per_user_day = 24.0;
  chaos.horizon = hours(2);
  chaos.drain = minutes(30);
  return chaos;
}

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
    const ChaosWorkloadOptions chaos = golden_chaos_workload();
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

// --- Merging traces ------------------------------------------------------------

// Real shard traces: the moving fold and the copying fold give the same
// export and the same per-stage report, and both stay valid once the
// shard results they came from are gone.
TEST(TraceMergeTest, MoveMergeMatchesCopyMerge) {
  const ChaosWorkloadOptions chaos = golden_chaos_workload();
  util::Trace copied;
  util::Trace moved;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    ShardResult result =
        run_chaos_shard(ShardTask{shard, shard_seed(1, shard)}, chaos);
    ASSERT_FALSE(result.trace.empty());
    copied.merge(result.trace);
    moved.merge(std::move(result.trace));
    EXPECT_TRUE(result.trace.empty());
  }
  EXPECT_EQ(moved.size(), copied.size());
  EXPECT_EQ(moved.to_jsonl(), copied.to_jsonl());
  EXPECT_EQ(moved.stage_report(), copied.stage_report());
}

/// One shard's spans. Ids and details are longer than std::string's
/// small-string buffer, so a span left pointing at freed storage reads
/// freed heap (which ASan reports) rather than a stale inline buffer.
void emit_shard_spans(util::Trace& trace, int shard) {
  for (int i = 0; i < 24; ++i) {
    const std::string id = "storm-shard-" + std::to_string(shard) +
                           "-alert-" + std::to_string(i % 5);
    const TimePoint at = kTimeZero + seconds(i);
    trace.emit(id, "mab", "receive", at,
               "a detail longer than the small-string buffer, variant " +
                   std::to_string(i % 3));
    trace.emit_owned(id, "restored-" + std::to_string(shard % 4), "replay",
                     at, at + seconds(1));
  }
}

// A 64-shard fold by move, in two levels (eight groups of eight, then
// the groups), so the fold also adopts storage that a group had adopted
// itself. The final trace takes over 64 shards' string storage, so its
// list of adopted storage grows several times; every span must still
// read the text it was emitted with after all sources are destroyed.
TEST(TraceMergeTest, SixtyFourShardFoldOutlivesItsSources) {
  util::Trace reference;  // every shard emitted straight into one trace
  for (int shard = 0; shard < 64; ++shard) emit_shard_spans(reference, shard);

  util::Trace moved;
  util::Trace copied;
  for (int group = 0; group < 8; ++group) {
    util::Trace group_trace;
    for (int shard = group * 8; shard < group * 8 + 8; ++shard) {
      util::Trace source;
      emit_shard_spans(source, shard);
      copied.merge(source);
      group_trace.merge(std::move(source));
    }
    moved.merge(std::move(group_trace));
  }

  const std::string expected = reference.to_jsonl();
  EXPECT_EQ(moved.size(), reference.size());
  EXPECT_EQ(moved.to_jsonl(), expected);
  EXPECT_EQ(copied.to_jsonl(), expected);
  EXPECT_EQ(moved.stage_report(), reference.stage_report());
  EXPECT_EQ(moved.describe("storm-shard-63-alert-4"),
            reference.describe("storm-shard-63-alert-4"));
}

// Copies re-intern, so a copy of a move-merged trace, an assigned copy
// and a moved-to trace all stay valid after the source is destroyed.
TEST(TraceMergeTest, CopiesAndMovesOutliveTheirSource) {
  util::Trace reference;
  emit_shard_spans(reference, 0);
  emit_shard_spans(reference, 1);
  const std::string expected = reference.to_jsonl();

  auto source = std::make_unique<util::Trace>();
  for (int shard = 0; shard < 2; ++shard) {
    util::Trace shard_trace;
    emit_shard_spans(shard_trace, shard);
    source->merge(std::move(shard_trace));
  }
  const util::Trace copy(*source);
  util::Trace assigned;
  assigned = *source;
  const util::Trace moved(std::move(*source));
  source.reset();

  EXPECT_EQ(copy.to_jsonl(), expected);
  EXPECT_EQ(assigned.to_jsonl(), expected);
  EXPECT_EQ(moved.to_jsonl(), expected);
}

// A moved-from trace, by construction or by assignment, is empty and
// takes new spans like a fresh one: components may still hold a Trace*
// to it and emit while their world tears down.
TEST(TraceMergeTest, MovedFromTraceIsEmptyAndReusable) {
  util::Trace reference;
  emit_shard_spans(reference, 2);

  util::Trace source;
  emit_shard_spans(source, 1);
  const util::Trace constructed(std::move(source));
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.size(), 0u);
  EXPECT_TRUE(source.spans().empty());
  EXPECT_EQ(source.to_jsonl(), "");
  emit_shard_spans(source, 2);
  EXPECT_EQ(source.to_jsonl(), reference.to_jsonl());

  util::Trace assigned;
  assigned = std::move(source);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  emit_shard_spans(source, 2);
  EXPECT_EQ(source.to_jsonl(), reference.to_jsonl());
  EXPECT_EQ(assigned.to_jsonl(), reference.to_jsonl());
  EXPECT_EQ(constructed.size(), reference.size());
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
