// Shared experiment harness for the SIMBA benchmarks.
//
// Unlike tests/test_world.h (fast loss-free models), this wires the
// REALISTIC models calibrated against the paper's Section 5 numbers:
//   * IM hop latency ~150-450 ms  => one-way source->MAB "< 1 second"
//   * pessimistic log write 250 ms => acknowledged in "about 1.5 s"
//   * MAB processing ~600 ms      => proxy->user routing "2.5 s"
//   * email seconds-to-days mixture, SMS carrier unpredictability
//
// Every bench binary prints "paper vs measured" rows through the
// helpers at the bottom.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mab_host.h"
#include "core/source_endpoint.h"
#include "core/user_endpoint.h"
#include "email/email_server.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/simulator.h"
#include "sms/sms.h"
#include "util/stats.h"
#include "util/strings.h"

namespace simba::bench {

/// Command-line: --seed plus the flags a bench declares it reads,
/// each accepted as "--flag=V" or "--flag V", in any order. A flag the
/// bench does not declare, or a missing, unparsable, or negative value,
/// prints the bench's usage and exits with status 2, so no flag is ever
/// silently ignored or misread. The checkpoint/resume flags belong to
/// bench_portal_scale only.
struct Options {
  std::uint64_t seed = 42;
  int n = 0;        // 0 = bench-specific default
  int users = 0;    // 0 = bench-specific default (fleet shard count)
  int threads = 1;  // fleet worker threads; 1 = serial
  /// Non-empty: write the merged lifecycle trace as sorted JSONL here
  /// (benches that trace; see fleet::FleetReport::trace).
  std::string trace_jsonl;
  /// Non-empty: also write the machine-readable metrics (the
  /// JsonReport the bench builds) to this path.
  std::string json;

  // --- Checkpoint / resume (bench_portal_scale) -----------------------------
  /// Epochs of the resumable fleet driver (fleet/resume.h).
  int epochs = 1;
  /// > 0: cut a checkpoint image once this many epochs have completed
  /// (fleet::ResumeControl::checkpoint_after_epoch).
  int checkpoint_every = 0;
  /// Die at the checkpoint instead of continuing — the "B" leg of the
  /// cross-process round-trip (tools/resume_roundtrip.py).
  bool stop_at_checkpoint = false;
  /// Non-empty: write the cut checkpoint image to this path.
  std::string checkpoint_path;
  /// Non-empty: decode this image and run the remaining epochs — the
  /// "C" leg of the round-trip.
  std::string resume_from;

  /// `accepted` lists the flags the bench reads besides --seed, e.g.
  /// {"--n", "--json"}.
  static Options parse(int argc, char** argv,
                       std::initializer_list<std::string_view> accepted);
};

/// Peak resident set size of this process so far, in bytes (Linux
/// ru_maxrss). Timing/footprint-only — never fold into deterministic
/// output.
std::uint64_t peak_rss_bytes();

/// Insertion-ordered flat JSON object for bench metrics; just enough
/// for the BENCH_*.json artifacts (numbers and plain strings).
class JsonReport {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, std::int64_t value);
  void add(const std::string& key, std::uint64_t value);
  void add(const std::string& key, int value) {
    add(key, static_cast<std::int64_t>(value));
  }
  void add(const std::string& key, const std::string& value);

  std::string render() const;
  /// Writes render() to `path`; returns false (with a stderr note) on
  /// I/O failure.
  bool write_to(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key -> literal
};

/// Calibrated infrastructure.
struct ExperimentWorld {
  explicit ExperimentWorld(std::uint64_t seed);

  sim::Simulator sim;
  net::MessageBus bus;
  im::ImServer im_server;
  email::EmailServer email_server;
  sms::SmsGateway sms_gateway;
};

/// The standard experiment cast: Victor (user), his buddy, and the
/// standard category/mode configuration used across experiments.
struct Cast {
  Cast(ExperimentWorld& world, core::MabHostOptions host_options = {},
       core::UserEndpointOptions user_options = {});

  std::unique_ptr<core::SourceEndpoint> make_source(
      ExperimentWorld& world, const std::string& name,
      Duration im_block_timeout = seconds(45));

  std::unique_ptr<core::UserEndpoint> user;
  std::unique_ptr<core::MabHost> host;
};

/// Mildly flaky client profile for the buddy's desktop, calibrated for
/// the one-month fault log (experiment E6).
gui::FaultProfile buddy_im_client_profile();
gui::FaultProfile buddy_email_client_profile();

// --- Reporting -------------------------------------------------------------

void print_header(const std::string& experiment_id,
                  const std::string& paper_claim);
void print_row(const std::string& metric, const std::string& paper,
               const std::string& measured, const std::string& note = "");
void print_summary_seconds(const std::string& metric, const std::string& paper,
                           const Summary& summary);
void print_section(const std::string& title);

}  // namespace simba::bench
