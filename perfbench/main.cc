// The SIMBA benchmark: one workload per invocation, end-to-end metrics
// (--trace 0) or per-layer metrics from a traced run (--trace 1), a
// correctness gate, and one JSON result line last on stdout. README.md
// documents the workloads, every metric, and the gate.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_counter.h"
#include "fleet/fleet.h"
#include "fleet/user_world.h"
#include "util/log.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/wall_clock.h"
#include "workloads.h"

namespace simba::perfbench {
namespace {

constexpr const char* kUsage =
    "usage: simba_perfbench --workload portal|storm|chaos --seed N\n"
    "                       [--seconds S] [--trace 0|1]\n"
    "  --seed N     workload seed, a non-negative integer (required)\n"
    "  --seconds S  least measuring time of the untraced run, 1..600\n"
    "               (default 10; the fixed sample may take longer)\n"
    "  --trace T    0: end-to-end metrics; 1: per-layer metrics from a\n"
    "               traced run (default 0)\n";

// Construct-only passes behind setup_s made before the first fleet
// run; one more follows every fleet run, so the median samples the
// whole run.
constexpr int kSetupPasses = 3;
// Every reported percentile needs this many samples ranked above it.
constexpr std::size_t kMinBeyond = 10;

// ---------------------------------------------------------------- CLI

struct Cli {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
};

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Strict: every flag known, every value parsable, --workload and
/// --seed present. Accepts "--flag value" and "--flag=value".
std::optional<Cli> parse_cli(int argc, char** argv) {
  Cli cli;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view name = argv[i];
    if (name.substr(0, 2) != "--") return std::nullopt;
    name.remove_prefix(2);
    std::string_view value;
    if (const auto eq = name.find('='); eq != std::string_view::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return std::nullopt;
    }
    std::uint64_t number = 0;
    if (name == "workload") {
      cli.workload = find_workload(value);
      if (cli.workload == nullptr) return std::nullopt;
    } else if (name == "seed") {
      if (!parse_u64(value, cli.seed)) return std::nullopt;
      have_seed = true;
    } else if (name == "seconds") {
      if (!parse_u64(value, number) || number < 1 || number > 600) {
        return std::nullopt;
      }
      cli.seconds = static_cast<int>(number);
    } else if (name == "trace") {
      if (value != "0" && value != "1") return std::nullopt;
      cli.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (cli.workload == nullptr || !have_seed) return std::nullopt;
  return cli;
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// "host", "virtual" or "exact" (a deterministic count or ratio).
  std::string kind;
  std::string note;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit, std::string kind,
           std::string note = {}) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                              std::move(kind), std::move(note)});
  }
  const std::vector<Metric>& all() const { return metrics_; }

  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-26s %16.6f %-16s [%s]%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.kind.c_str(), m.note.empty() ? "" : " ",
                  m.note.c_str());
    }
  }

  std::string json() const {
    std::string out = "{";
    for (const Metric& m : metrics_) {
      if (out.size() > 1) out += ", ";
      out += strformat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       m.name.c_str(), m.value, m.unit.c_str());
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// A percentile and how many samples rank above it (Summary::percentile
/// interpolates between ranks floor(r) and ceil(r), r = p/100 * (n-1)).
struct Tail {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;

  bool supported() const { return beyond >= kMinBeyond; }
  std::string note() const {
    return strformat("n=%zu, %zu beyond%s", n, beyond,
                     supported() ? "" : ": too few samples, n/a");
  }
};

Tail tail(const Summary& summary, double p) {
  Tail t;
  t.n = summary.count();
  if (t.n == 0) return t;
  t.value = summary.percentile(p);
  const double rank = p / 100.0 * static_cast<double>(t.n - 1);
  t.beyond = t.n - 1 - static_cast<std::size_t>(std::ceil(rank));
  return t;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// --------------------------------------------------------------- gate

class Gate {
 public:
  void require(bool condition, const std::string& what) {
    if (!condition) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  void print() const {
    for (const std::string& f : failures_) {
      std::fprintf(stderr, "correctness: FAILED: %s\n", f.c_str());
    }
  }

 private:
  std::vector<std::string> failures_;
};

/// The per-run contract: no invariant violation, no invented sighting,
/// no unlogged ack, and alerts actually submitted. Returns false (and
/// records why) on a breach.
bool check_report(const fleet::FleetReport& report, const std::string& label,
                  Gate& gate) {
  bool ok = report.counters.get("alerts.sent") > 0;
  gate.require(ok, label + ": no alerts submitted");
  for (const char* key : {"invariant.violations.total",
                          "conservation.invented",
                          "conservation.ack_unlogged"}) {
    const std::int64_t value = report.counters.get(key);
    gate.require(value == 0, strformat("%s: %s = %lld", label.c_str(), key,
                                       static_cast<long long>(value)));
    ok = ok && value == 0;
  }
  for (const fleet::ShardResult& shard : report.per_shard) {
    if (!shard.violation_details.empty()) {
      std::fprintf(stderr, "%s shard %zu:\n%s\n", label.c_str(),
                   shard.shard_id, shard.violation_details.c_str());
    }
  }
  return ok;
}

/// Base seed of the r-th distinct fleet run of a benchmark seed.
std::uint64_t run_seed(std::uint64_t seed, std::size_t r) {
  return fleet::shard_seed(seed, r);
}

/// Builds and destroys every shard world of the run's sample (all
/// `workload.runs` fleet runs); returns the host seconds spent in the
/// UserWorld constructors.
double setup_pass(const Workload& workload, std::uint64_t seed) {
  double constructing = 0.0;
  for (std::size_t r = 0; r < workload.runs; ++r) {
    const std::uint64_t base_seed = run_seed(seed, r);
    for (std::size_t shard = 0; shard < workload.worlds; ++shard) {
      const fleet::UserWorldOptions options =
          shard_world_options(workload, shard);
      const util::WallTimer timer;
      fleet::UserWorld world(fleet::shard_seed(base_seed, shard), options);
      constructing += timer.seconds();
    }
  }
  return constructing;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const MetricList& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, metrics.json().c_str());
  std::fflush(stdout);
}

// --------------------------------------------------- end-to-end run

int run_end_to_end(const Workload& workload, const Cli& cli) {
  Gate gate;
  std::atomic<std::uint64_t> body_allocs{0};

  std::vector<double> setup;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    setup.push_back(setup_pass(workload, cli.seed));
  }

  Counters counters;
  Summary delivery;
  Summary critical;
  std::vector<std::string> fingerprints;
  std::vector<double> walls;
  std::size_t failed_runs = 0;

  // The sample's distinct fleet runs, then repeats of them in order
  // until --seconds have passed (at least one repeat). A repeat has its
  // run's seed, so its correctness_json() must not change.
  const util::WallTimer measuring;
  std::size_t runs = 0;
  for (; runs <= workload.runs || measuring.seconds() < cli.seconds; ++runs) {
    const std::size_t of = runs % workload.runs;
    const fleet::FleetReport report = run_workload(
        workload, run_seed(cli.seed, of), 1, /*traced=*/false, body_allocs);
    walls.push_back(report.wall_seconds);
    setup.push_back(setup_pass(workload, cli.seed));
    if (runs >= workload.runs) {
      const bool same = report.correctness_json() == fingerprints[of];
      gate.require(same, strformat("run %zu repeated with its seed gave a "
                                   "different correctness_json()",
                                   of));
      if (!same) ++failed_runs;
      continue;
    }
    if (!check_report(report, strformat("run %zu", of), gate)) ++failed_runs;
    fingerprints.push_back(report.correctness_json());
    counters.merge(report.counters);
    delivery.merge(report.delivery_latency);
    critical.merge(report.critical_latency);
  }

  const bool portal = workload.kind == WorkloadKind::kPortal;
  const double submitted = static_cast<double>(
      counters.get(portal ? "alerts.sent" : "invariant.submitted"));
  const double failed =
      portal ? static_cast<double>(counters.get("alerts.lost"))
             : static_cast<double>(counters.get("invariant.failed") +
                                   counters.get("invariant.shed"));
  const double delivered = static_cast<double>(counters.get("alerts.delivered"));
  const double duplicates =
      static_cast<double>(counters.get("alerts.duplicates"));

  const Tail p50 = tail(delivery, 50.0);
  const Tail p99 = tail(delivery, 99.0);
  const Tail crit = workload.has_critical_class ? tail(critical, 99.0) : p99;
  for (const Tail* t : {&p50, &p99, &crit}) {
    gate.require(t->supported(),
                 "a delivery percentile has fewer than 10 samples beyond it "
                 "(" + t->note() + ")");
  }

  MetricList metrics;
  metrics.add("setup_s", median(setup), "s", "host",
              strformat("median of %zu construct-only passes over %zu worlds",
                        setup.size(), workload.runs * workload.worlds));
  metrics.add("wall_s", median(walls), "s", "host",
              strformat("median of %zu run_fleet calls, %zu worlds, 1 thread",
                        walls.size(), workload.worlds));
  metrics.add("peak_rss_mib", peak_rss_mib(), "MiB", "host");
  metrics.add("failed_ratio", 1.0 + ratio(failed, submitted), "ratio",
              "virtual",
              strformat("1 + share failed; %.0f of %.0f alerts %s", failed,
                        submitted, portal ? "lost" : "failed or shed"));
  metrics.add("delivery_p50_s", p50.value, "virtual_s", "virtual",
              p50.note());
  metrics.add("delivery_p99_s", p99.value, "virtual_s", "virtual",
              p99.note());
  metrics.add("critical_p99_s", crit.value, "virtual_s", "virtual",
              crit.note() + (workload.has_critical_class
                                 ? ""
                                 : "; no critical class, all alerts"));
  metrics.add("duplicate_ratio", ratio(delivered + duplicates, delivered),
              "ratio", "virtual",
              strformat("sightings per delivered alert; %.0f duplicate "
                        "sightings over %.0f delivered",
                        duplicates, delivered));

  std::printf("workload %s, seed %llu, %zu distinct fleet runs of %zu "
              "worlds (%zu runs in all)\n",
              workload.name, static_cast<unsigned long long>(cli.seed),
              workload.runs, workload.worlds, runs);
  metrics.print();
  gate.print();
  print_result(gate.ok(), runs, failed_runs, metrics);
  return gate.ok() ? 0 : 1;
}

// ------------------------------------------------------- traced run

/// What one observed fleet run yields for the per-layer readout.
struct Observation {
  std::string fingerprint;  // correctness_json()
  MetricList layers;        // kind "exact" ones are compared across runs
  double wall_s = 0.0;
  bool ok = false;  // check_report() passed
};

Observation observe(const Workload& workload, std::uint64_t base_seed,
                    int threads, bool traced, bool export_jsonl, Gate& gate,
                    const std::string& label) {
  std::atomic<std::uint64_t> body_allocs{0};
  const AllocCounts before = alloc_counts();
  const fleet::FleetReport report =
      run_workload(workload, base_seed, threads, traced, body_allocs);
  const std::uint64_t run_allocs = allocs_since(before);

  Observation o;
  o.ok = check_report(report, label, gate);
  o.fingerprint = report.correctness_json();
  o.wall_s = report.wall_seconds;
  const Counters& c = report.counters;
  const double alerts = static_cast<double>(c.get("alerts.sent"));
  const double events = static_cast<double>(report.events_processed);
  const double shard_sum = report.shard_wall_seconds.total();
  const double days = to_seconds(workload.simulated_per_world) / 86400.0 *
                      static_cast<double>(workload.worlds);
  const auto stages = report.trace.stage_latency();
  const auto stage = [&stages](const char* key) -> const Summary& {
    static const Summary kEmpty;
    const auto it = stages.find(key);
    return it == stages.end() ? kEmpty : it->second;
  };
  const auto count = [&stage](const char* key) {
    return static_cast<double>(stage(key).count());
  };
  const auto add_exact = [&o](const char* name, double value,
                              const char* unit) {
    o.layers.add(name, value, unit, "exact");
  };
  const auto add_tail = [&o](const char* name, const Tail& t) {
    o.layers.add(name, t.supported() ? t.value : 0.0, "virtual_s", "virtual",
                 t.note());
  };

  // sim: the event kernel.
  add_exact("sim.events", events, "count");
  add_exact("sim.events_per_alert", ratio(events, alerts), "events/alert");
  o.layers.add("sim.ns_per_event", ratio(shard_sum * 1e9, events), "ns",
               "host", "summed shard-body seconds over events");

  // fleet: shard bodies and the fold outside them.
  o.layers.add("fleet.shard_s_p50", report.shard_wall_seconds.median(), "s",
               "host");
  o.layers.add("fleet.shard_s_max", report.shard_wall_seconds.max(), "s",
               "host");
  o.layers.add("fleet.fold_s", report.wall_seconds - shard_sum, "s", "host",
               "run_fleet wall minus summed shard seconds");

  // alloc: exact only single-threaded.
  if (threads == 1) {
    const double body = static_cast<double>(body_allocs.load());
    add_exact("alloc.run_per_user_day", ratio(body, days), "allocs/user-day");
    add_exact("alloc.run_per_alert", ratio(body, alerts), "allocs/alert");
    add_exact("alloc.fold", static_cast<double>(run_allocs) - body, "allocs");
  }

  // net: alert-correlated bus traffic (bus.* spans) and transport sheds.
  const Summary& transit = stage("bus.deliver");
  add_exact("net.msgs", count("bus.send"), "count");
  add_tail("net.transit_p50_s", tail(transit, 50.0));
  add_tail("net.transit_p99_s", tail(transit, 99.0));
  add_exact("net.dropped", count("bus.drop"), "count");
  add_exact("net.shed", static_cast<double>(c.get("pending.shed")), "count");

  // core: log, delivery engine, MAB.
  const double submitted = static_cast<double>(c.get("invariant.submitted"));
  o.layers.add("core.log_append_s", stage("log.append").mean(), "virtual_s",
               "virtual",
               strformat("mean over n=%zu appends",
                         stage("log.append").count()));
  add_tail("core.block_wait_p99_s", tail(stage("delivery.block"), 99.0));
  add_exact("core.block_timeouts", count("delivery.block_timeout"), "count");
  add_exact("core.action_fails", count("delivery.action_fail"), "count");
  add_exact("core.dedup_drops", count("mab.duplicate_drop"), "count");
  add_exact("core.routed_per_received",
            ratio(count("mab.route"), count("mab.receive")), "ratio");
  add_exact("core.coalesce_ratio",
            ratio(static_cast<double>(c.get("invariant.coalesced")),
                  submitted),
            "ratio");
  add_exact("core.shed_ratio",
            ratio(static_cast<double>(c.get("invariant.shed")), submitted),
            "ratio");
  add_exact("core.admission_over_limit",
            static_cast<double>(c.get("admission.over_limit")), "count");

  // trace: retention and export.
  const double spans = static_cast<double>(report.trace.size());
  add_exact("trace.spans", spans, "count");
  add_exact("trace.spans_per_alert", ratio(spans, alerts), "spans/alert");
  if (export_jsonl) {
    const util::WallTimer timer;
    const std::string jsonl = report.trace.to_jsonl();
    const double export_s = timer.seconds();
    add_exact("trace.jsonl_bytes", static_cast<double>(jsonl.size()),
              "bytes");
    o.layers.add("trace.export_s", export_s, "s", "host",
                 "Trace::to_jsonl");
  }
  return o;
}

/// Requires every exact metric of `a` to read the same in `b` (metrics
/// missing from `b`, like allocation counts at tN, are skipped).
void require_same_counts(const Observation& a, const Observation& b,
                         const std::string& label, Gate& gate) {
  for (const Metric& m : a.layers.all()) {
    for (const Metric& other : b.layers.all()) {
      if (m.kind == "exact" && other.name == m.name) {
        gate.require(other.value == m.value,
                     strformat("%s: %s %.17g vs %.17g", label.c_str(),
                               m.name.c_str(), m.value, other.value));
      }
    }
  }
}

int run_traced(const Workload& workload, const Cli& cli) {
  Gate gate;
  const std::uint64_t base_seed = run_seed(cli.seed, 0);
  const int threads = std::clamp(usable_cpus(), 2, 4);
  const bool portal = workload.kind == WorkloadKind::kPortal;

  // Construct-only allocation count, after a warm-up pass has done the
  // process's one-time lazy initialisation; a second count must match.
  setup_pass(workload, cli.seed);
  const AllocCounts setup0 = alloc_counts();
  setup_pass(workload, cli.seed);
  const std::uint64_t setup_allocs = allocs_since(setup0);
  const AllocCounts setup1 = alloc_counts();
  setup_pass(workload, cli.seed);
  const std::uint64_t setup_allocs_again = allocs_since(setup1);
  gate.require(setup_allocs_again == setup_allocs,
               "set-up allocation count differs between passes");

  std::optional<Observation> untraced;
  if (portal) {
    untraced = observe(workload, base_seed, 1, false, false, gate,
                       "untraced t1");
  }
  const Observation a =
      observe(workload, base_seed, 1, true, true, gate, "traced t1");
  const Observation b =
      observe(workload, base_seed, 1, true, true, gate, "traced t1 again");
  const Observation tn =
      observe(workload, base_seed, threads, true, false, gate,
              strformat("traced t%d", threads));
  std::vector<const Observation*> observed = {&a, &b, &tn};
  if (untraced) observed.push_back(&*untraced);
  const std::size_t runs = observed.size();
  const auto failed_runs = static_cast<std::size_t>(std::count_if(
      observed.begin(), observed.end(),
      [](const Observation* o) { return !o->ok; }));

  gate.require(b.fingerprint == a.fingerprint,
               "correctness_json() differs between two runs of one seed");
  gate.require(tn.fingerprint == a.fingerprint,
               strformat("correctness_json() differs between t1 and t%d",
                         threads));
  if (untraced) {
    gate.require(untraced->fingerprint == a.fingerprint,
                 "correctness_json() differs between traced and untraced");
  }
  require_same_counts(a, b, "exact count differs between runs", gate);
  require_same_counts(a, tn, "exact count differs between t1 and tN", gate);

  MetricList metrics = a.layers;
  metrics.add("alloc.setup_per_world",
              ratio(static_cast<double>(setup_allocs),
                    static_cast<double>(workload.runs * workload.worlds)),
              "allocs/world", "exact");
  metrics.add("fleet.thread_speedup", ratio(a.wall_s, tn.wall_s), "x", "host",
              strformat("t1 wall over t%d wall, %d usable CPUs", threads,
                        usable_cpus()));
  metrics.add("trace.overhead_s",
              untraced ? a.wall_s - untraced->wall_s : 0.0, "s", "host",
              untraced ? "traced minus untraced wall"
                       : "n/a: this entry point always traces");

  std::printf("workload %s, seed %llu, traced run: %zu worlds per fleet "
              "run, %zu runs\n",
              workload.name, static_cast<unsigned long long>(cli.seed),
              workload.worlds, runs);
  metrics.print();
  gate.print();
  print_result(gate.ok(), runs, failed_runs, metrics);
  return gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace simba::perfbench

int main(int argc, char** argv) {
  using namespace simba::perfbench;
  const std::optional<Cli> cli = parse_cli(argc, argv);
  if (!cli) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  // Simulated faults log warnings by the thousand; keep stderr for
  // real failures.
  simba::Log::set_threshold(simba::LogLevel::kError);
  return cli->trace ? run_traced(*cli->workload, *cli)
                    : run_end_to_end(*cli->workload, *cli);
}
