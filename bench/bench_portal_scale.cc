// Experiment E9 — portal-scale workload (Section 1), fleet edition.
//
// Paper: "We analyzed a recent one-week usage log from a commercial
// portal site, and it showed that on average around 225 thousands of
// people received around 778 thousands of alerts every day from that
// site" — i.e. ~3.46 alerts per user per day.
//
// Per-user MyAlertBuddy routing is independent across users, so the
// replay shards one world per user across the fleet runner's thread
// pool (--users N --threads T). Shard seeds derive only from the base
// seed and shard id, and merging is shard-ordered, so the merged
// correctness counters are identical for every thread count — compare
// `--threads 1` against `--threads $(nproc)` to see the speedup with
// the same delivered/lost/duplicate numbers.
//
// Every run goes through the resumable fleet driver (fleet/resume.h).
// The default single epoch is exactly run_fleet over run_portal_shard;
// --epochs N splits the day at N - 1 planned crash-restarts, and
// --checkpoint-every / --stop-at-checkpoint / --checkpoint-path /
// --resume-from cut a checkpoint image and finish it in another
// process (tools/resume_roundtrip.py byte-compares the two).
#include <algorithm>
#include <fstream>
#include <sstream>

#include "common.h"
#include "fleet/resume.h"

using namespace simba;
using namespace simba::bench;

int main(int argc, char** argv) {
  const Options options = Options::parse(
      argc, argv,
      {"--n", "--users", "--threads", "--trace-jsonl", "--json", "--epochs",
       "--checkpoint-every", "--stop-at-checkpoint", "--checkpoint-path",
       "--resume-from"});
  if (options.epochs < 1) {
    std::fprintf(stderr, "%s: --epochs must be at least 1\n", argv[0]);
    return 2;
  }

  const int users =
      options.users > 0 ? options.users : (options.n > 0 ? options.n : 64);
  const int threads = std::max(1, options.threads);
  const double alerts_per_user_day = 778000.0 / 225000.0;

  fleet::PortalWorkloadOptions workload;
  workload.traffic = fleet::Traffic::kPortalEmail;
  workload.alerts_per_user_day = alerts_per_user_day;
  workload.world.fidelity = fleet::ModelFidelity::kCalibrated;
  workload.world.email_check_interval = minutes(60);
  // Lifecycle tracing feeds the per-stage latency section below and
  // the optional --trace-jsonl dump. Traces consume no randomness, so
  // the correctness numbers are unchanged either way.
  workload.world.trace = true;

  fleet::ResumableOptions resumable;
  resumable.workload = workload;
  resumable.fleet.shards = static_cast<std::size_t>(users);
  resumable.fleet.threads = threads;
  resumable.fleet.base_seed = options.seed;
  resumable.epochs = options.epochs;
  fleet::ResumeControl control;
  control.checkpoint_after_epoch = options.checkpoint_every;
  control.stop_at_checkpoint = options.stop_at_checkpoint;

  // A malformed or mismatched checkpoint image is a clean nonzero
  // exit, never UB.
  Counters ckpt;
  fleet::ResumableRun run;
  if (options.resume_from.empty()) {
    run = fleet::run_resumable_fleet(resumable, control, &ckpt);
  } else {
    std::ifstream in(options.resume_from, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read checkpoint %s\n",
                   options.resume_from.c_str());
      return 1;
    }
    std::ostringstream image;
    image << in.rdbuf();
    Result<fleet::ResumableRun> resumed =
        fleet::resume_fleet(resumable, image.str(), control, &ckpt);
    if (!resumed.ok()) {
      std::fprintf(stderr, "resume failed: %s\n", resumed.error().c_str());
      return 1;
    }
    run = std::move(resumed).take();
  }
  if (!run.checkpoint.empty() && !options.checkpoint_path.empty()) {
    std::ofstream out(options.checkpoint_path,
                      std::ios::binary | std::ios::trunc);
    if (!(out << run.checkpoint)) {
      std::fprintf(stderr, "cannot write checkpoint %s\n",
                   options.checkpoint_path.c_str());
      return 1;
    }
  }

  JsonReport json;
  json.add("bench", std::string("bench_portal_scale"));
  json.add("scheduler", std::string(sim::Simulator::kScheduler));
  json.add("seed", static_cast<std::int64_t>(options.seed));
  json.add("users", users);
  json.add("threads", threads);
  json.add("epochs", options.epochs);
  json.add("completed", run.completed ? 1 : 0);
  json.add("checkpoint_bytes",
           static_cast<std::int64_t>(run.checkpoint.size()));
  json.add("ckpt_saved", ckpt.get("ckpt.saved"));
  json.add("ckpt_restored", ckpt.get("ckpt.restored"));
  if (!run.completed) {
    print_section("E9: stopped at the checkpoint");
    print_row("checkpoint image", "-",
              strformat("%zu bytes after epoch %d of %d",
                        run.checkpoint.size(), options.checkpoint_every,
                        options.epochs));
    return options.json.empty() || json.write_to(options.json) ? 0 : 1;
  }

  const fleet::FleetReport& report = run.report;
  const std::int64_t sent = report.counters.get("alerts.sent");
  const std::int64_t delivered = report.counters.get("alerts.delivered");

  print_header("E9: portal-scale replay (sharded fleet)",
               "~225k users x ~3.46 alerts/user/day = ~778k alerts/day");
  print_row("users simulated", "225,000 (paper's portal)",
            std::to_string(users), "one fleet shard per user");
  print_row("fleet worker threads", "-", std::to_string(threads));
  print_row("portal alerts in the virtual day",
            strformat("%.2f per user", alerts_per_user_day),
            std::to_string(sent));
  print_row("alerts seen by users", "-",
            strformat("%lld (%.1f%%)", static_cast<long long>(delivered),
                      sent == 0 ? 0.0 : 100.0 * delivered / sent),
            "email losses and unread tails account for the rest");
  print_row("alerts lost / duplicated", "-",
            strformat("%lld / %lld",
                      static_cast<long long>(report.counters.get("alerts.lost")),
                      static_cast<long long>(
                          report.counters.get("alerts.duplicates"))));
  print_row("simulator events processed", "-",
            std::to_string(report.events_processed));
  print_row("wall-clock for the virtual day", "-",
            strformat("%.2f s", report.wall_seconds));
  const double events_per_sec =
      report.events_processed / std::max(report.wall_seconds, 1e-9);
  print_row("kernel events per second", "-",
            strformat("%.0f", events_per_sec),
            "throughput metric tracked by BENCH_portal_scale.json");
  print_row("peak RSS", "-",
            strformat("%.1f MiB", peak_rss_bytes() / (1024.0 * 1024.0)));
  print_row("virtual-day speedup", "-",
            strformat("%.0fx", 86400.0 / std::max(report.wall_seconds, 1e-9)));
  const double full_scale_estimate =
      report.wall_seconds * (225000.0 / std::max(users, 1));
  print_row("est. wall-clock at full 225k users", "-",
            strformat("%.0f s (%.1f h)", full_scale_estimate,
                      full_scale_estimate / 3600.0),
            "linear extrapolation at this thread count");

  print_section("per-stage latency (merged lifecycle trace)");
  std::printf("%s", report.trace.stage_report().c_str());

  if (!options.trace_jsonl.empty()) {
    std::FILE* out = std::fopen(options.trace_jsonl.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   options.trace_jsonl.c_str());
      return 1;
    }
    const std::string jsonl = report.trace.to_jsonl();
    std::fwrite(jsonl.data(), 1, jsonl.size(), out);
    std::fclose(out);
    print_row("trace dumped", "-",
              strformat("%zu spans -> %s", report.trace.size(),
                        options.trace_jsonl.c_str()));
  }

  print_section("merged fleet report");
  std::printf("%s", report.render().c_str());

  if (!options.json.empty()) {
    json.add("alerts_sent", sent);
    json.add("alerts_delivered", delivered);
    json.add("alerts_lost", report.counters.get("alerts.lost"));
    json.add("alerts_duplicates", report.counters.get("alerts.duplicates"));
    json.add("events_processed", report.events_processed);
    json.add("wall_seconds", report.wall_seconds);
    json.add("events_per_sec", events_per_sec);
    json.add("peak_rss_bytes", peak_rss_bytes());
    json.add("correctness", report.correctness_json());
    if (!json.write_to(options.json)) return 1;
  }
  return 0;
}
