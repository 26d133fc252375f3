#include "fleet/resume.h"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/alert.h"
#include "fleet/world_state.h"
#include "sim/invariants.h"
#include "sim/snapshot.h"
#include "util/arena.h"
#include "util/flat_map.h"

namespace simba::fleet {

const char* workload_name(const WorkloadOptions& workload) {
  constexpr const char* kNames[] = {"portal", "chaos", "storm"};
  return kNames[workload.index()];
}

namespace {

// --- Image layout -----------------------------------------------------------

constexpr std::uint32_t kShardImageKind = 1;
constexpr std::uint32_t kFleetImageKind = 2;
constexpr std::uint32_t kShapeImageKind = 3;

// Shard-image sections, in their strict order.
enum ShardSection : std::uint32_t {
  kSecMeta = 1,
  kSecClock = 2,
  kSecHost = 3,
  kSecUser = 4,
  kSecEmail = 5,
  kSecBus = 6,
  kSecTrace = 7,
  kSecPlan = 8,
  kSecChecker = 9,
  kSecDriver = 10,
};

// Fleet-image sections: one meta, then one shard blob per shard in
// shard order.
enum FleetSection : std::uint32_t {
  kSecFleetMeta = 1,
  kSecFleetShard = 2,
};

// --- The arrival plan -------------------------------------------------------

// Every arrival stream the workloads submit. The whole schedule is
// realized once, when a shard's first epoch starts, from the workload's
// dedicated rng stream — after that it is pure data, carried (and
// checkpointed) as such.
enum StreamId : std::uint8_t {
  kStreamPortalMail,    // legacy portal mail into the buddy's mailbox
  kStreamPortalSource,  // portal alerts from a SIMBA-library source
  kStreamChaos,         // chaos-workload source alerts
  kStreamBackground,    // storm background floor
  kStreamCritical,      // storm high-importance stream
  kStreamCascade,       // Aladdin sensor cascades
  kStreamBurst,         // proxy poll bursts
  kStreamCount,
};

struct Stream {
  /// Submitting library source; null for mail straight into the
  /// buddy's mailbox.
  const char* source;
  const char* native;
  const char* subject_prefix;
  bool critical;
  /// Outcomes feed the conservation checker (chaos, storm); otherwise
  /// the source's acks are kept for the portal's ack scoring.
  bool checked;
};

constexpr Stream kStreams[kStreamCount] = {
    {nullptr, nullptr, "portal alert ", false, false},
    {"src", "K", "alert ", false, false},
    {"src", "K", "chaos alert ", false, true},
    {"src", "K", "storm alert ", false, true},
    {"aladdin", "Motion", "storm alert ", true, true},
    {"aladdin", "Motion", "storm alert ", false, true},
    {"proxy", "Poll", "storm alert ", false, true},
};

struct Arrival {
  TimePoint t{};
  std::uint8_t stream = kStreamPortalMail;
};

/// A source-side acknowledgement, as the portal scores it.
struct Ack {
  TimePoint completed_at{};
  int block_used = -1;
};

// --- Per-shard driver -------------------------------------------------------

/// Everything one shard carries across epoch boundaries. This struct
/// (plus the options it was created under) IS the checkpoint: encoding
/// it and decoding it back must be lossless.
struct ShardDriver {
  std::uint32_t next_epoch = 0;
  /// The full arrival schedule in generation order (stream by stream);
  /// an arrival's index is its alert id number. Fixed after epoch 0.
  std::vector<Arrival> plan;
  /// World state saved at the last boundary (meaningful when
  /// next_epoch > 0).
  WorldState world;
  /// Conservation tracker spanning all epochs (chaos / storm).
  sim::InvariantChecker checker;
  /// Portal mail: MAB-assigned alert id -> submit time, fed by the
  /// alert observer. Serialised through sorted_items() so checkpoint
  /// images stay sorted and thread-invariant, like `acked`.
  util::FlatMap<std::string, TimePoint> sent_at;
  /// Portal source: alert id -> its source-side acknowledgement.
  util::FlatMap<std::string, Ack> acked;
  /// Portal only: availability-probe counters.
  Counters health;
  /// Shard checkpoint image, filled at the boundary the control asked
  /// to checkpoint at (encoding is pure, so it is safe inside the
  /// parallel shard body).
  std::string image;
};

// --- Codecs -----------------------------------------------------------------
// All decoders lean on SnapshotReader's sticky-error contract: loops
// are bounded by per-iteration ok() checks and nothing pre-reserves
// from untrusted lengths, so a corrupt image degrades into a clean
// Status, never UB.

void put_string_vector(sim::SnapshotWriter& w,
                       const std::vector<std::string>& v) {
  w.u64(v.size());
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> get_string_vector(sim::SnapshotReader& r) {
  std::vector<std::string> out;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) out.push_back(r.str());
  return out;
}

void put_string_map(sim::SnapshotWriter& w,
                    // simba-lint: ordered (snapshot serialises sorted)
                    const std::map<std::string, std::string>& m) {
  w.u64(m.size());
  for (const auto& [key, value] : m) {
    w.str(key);
    w.str(value);
  }
}

// simba-lint: ordered
std::map<std::string, std::string> get_string_map(sim::SnapshotReader& r) {
  // simba-lint: ordered
  std::map<std::string, std::string> out;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.str();
    out[std::move(key)] = r.str();
  }
  return out;
}

// Header maps are FlatMaps; serialising via sorted_items() keeps the
// image byte-identical to the ordered-map encoding above.
void put_string_map(sim::SnapshotWriter& w,
                    const util::FlatMap<std::string, std::string>& m) {
  w.u64(m.size());
  for (const auto& [key, value] : m.sorted_items()) {
    w.str(key);
    w.str(value);
  }
}

util::FlatMap<std::string, std::string> get_flat_string_map(
    sim::SnapshotReader& r) {
  util::FlatMap<std::string, std::string> out;
  const std::uint64_t n = r.u64();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.str();
    out[std::move(key)] = r.str();
  }
  return out;
}

void put_alert(sim::SnapshotWriter& w, const core::Alert& alert) {
  w.str(alert.source);
  w.str(alert.native_category);
  w.str(alert.subject);
  w.str(alert.body);
  w.boolean(alert.high_importance);
  w.time_point(alert.created_at);
  w.str(alert.id);
  put_string_map(w, alert.attributes);
}

core::Alert get_alert(sim::SnapshotReader& r) {
  core::Alert alert;
  alert.source = r.str();
  alert.native_category = r.str();
  alert.subject = r.str();
  alert.body = r.str();
  alert.high_importance = r.boolean();
  alert.created_at = r.time_point();
  alert.id = r.str();
  alert.attributes = get_string_map(r);
  return alert;
}

void put_email(sim::SnapshotWriter& w, const email::Email& mail) {
  w.u64(mail.id);
  w.str(mail.from);
  w.str(mail.to);
  w.str(mail.subject);
  w.str(mail.body);
  put_string_map(w, mail.headers);
  w.boolean(mail.high_importance);
  w.time_point(mail.submitted_at);
  w.time_point(mail.delivered_at);
}

email::Email get_email(sim::SnapshotReader& r) {
  email::Email mail;
  mail.id = r.u64();
  mail.from = r.str();
  mail.to = r.str();
  mail.subject = r.str();
  mail.body = r.str();
  mail.headers = get_flat_string_map(r);
  mail.high_importance = r.boolean();
  mail.submitted_at = r.time_point();
  mail.delivered_at = r.time_point();
  return mail;
}

void put_host(sim::SnapshotWriter& w, const core::MabHost::State& s) {
  w.u64(s.log.records.size());
  for (const core::AlertLog::SavedRecord& record : s.log.records) {
    put_alert(w, record.alert);
    w.time_point(record.received_at);
    w.time_point(record.processed_at);
    w.boolean(record.processed);
  }
  sim::put_counters(w, s.log.stats);
  w.u64(s.digest.entries.size());
  for (const core::DigestStore::Entry& entry : s.digest.entries) {
    put_alert(w, entry.alert);
    w.str(entry.category);
    w.time_point(entry.filtered_at);
  }
  sim::put_counters(w, s.digest.stats);
  w.u64(s.coalescer.windows.size());
  for (const core::AlertCoalescer::WindowState& window : s.coalescer.windows) {
    w.str(window.category);
    w.u64(window.count);
    put_string_vector(w, window.representative_ids);
    put_string_vector(w, window.folded_ids);
    w.time_point(window.opened_at);
    w.time_point(window.deadline);
  }
  w.u64(s.coalescer.next_sequence);
  w.u64(s.mab_incarnations);
  sim::put_counters(w, s.stats);
  sim::put_counters(w, s.mab_totals);
}

core::MabHost::State get_host(sim::SnapshotReader& r) {
  core::MabHost::State s;
  const std::uint64_t records = r.u64();
  for (std::uint64_t i = 0; i < records && r.ok(); ++i) {
    core::AlertLog::SavedRecord record;
    record.alert = get_alert(r);
    record.received_at = r.time_point();
    record.processed_at = r.time_point();
    record.processed = r.boolean();
    s.log.records.push_back(std::move(record));
  }
  s.log.stats = sim::get_counters(r);
  const std::uint64_t entries = r.u64();
  for (std::uint64_t i = 0; i < entries && r.ok(); ++i) {
    core::DigestStore::Entry entry;
    entry.alert = get_alert(r);
    entry.category = r.str();
    entry.filtered_at = r.time_point();
    s.digest.entries.push_back(std::move(entry));
  }
  s.digest.stats = sim::get_counters(r);
  const std::uint64_t windows = r.u64();
  for (std::uint64_t i = 0; i < windows && r.ok(); ++i) {
    core::AlertCoalescer::WindowState window;
    window.category = r.str();
    window.count = r.u64();
    window.representative_ids = get_string_vector(r);
    window.folded_ids = get_string_vector(r);
    window.opened_at = r.time_point();
    window.deadline = r.time_point();
    s.coalescer.windows.push_back(std::move(window));
  }
  s.coalescer.next_sequence = r.u64();
  s.mab_incarnations = r.u64();
  s.stats = sim::get_counters(r);
  s.mab_totals = sim::get_counters(r);
  return s;
}

void put_user(sim::SnapshotWriter& w, const core::UserEndpoint::State& s) {
  w.u64(s.sightings.size());
  for (const core::UserEndpoint::SightingState& sighting : s.sightings) {
    w.str(sighting.alert_id);
    w.time_point(sighting.first);
    w.str(sighting.channel);
    w.i64(sighting.count);
  }
  w.u64(s.email_cursor);
  sim::put_counters(w, s.stats);
}

core::UserEndpoint::State get_user(sim::SnapshotReader& r) {
  core::UserEndpoint::State s;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    core::UserEndpoint::SightingState sighting;
    sighting.alert_id = r.str();
    sighting.first = r.time_point();
    sighting.channel = r.str();
    sighting.count = static_cast<int>(r.i64());
    s.sightings.push_back(std::move(sighting));
  }
  s.email_cursor = r.u64();
  s.stats = sim::get_counters(r);
  return s;
}

void put_email_server(sim::SnapshotWriter& w,
                      const email::EmailServer::State& s) {
  w.u64(s.mailboxes.size());
  for (const email::EmailServer::MailboxState& mailbox : s.mailboxes) {
    w.str(mailbox.address);
    w.u64(mailbox.mail.size());
    for (const email::Email& mail : mailbox.mail) put_email(w, mail);
  }
  w.u64(s.next_id);
  sim::put_counters(w, s.stats);
}

email::EmailServer::State get_email_server(sim::SnapshotReader& r) {
  email::EmailServer::State s;
  const std::uint64_t boxes = r.u64();
  for (std::uint64_t i = 0; i < boxes && r.ok(); ++i) {
    email::EmailServer::MailboxState mailbox;
    mailbox.address = r.str();
    const std::uint64_t mails = r.u64();
    for (std::uint64_t j = 0; j < mails && r.ok(); ++j) {
      mailbox.mail.push_back(get_email(r));
    }
    s.mailboxes.push_back(std::move(mailbox));
  }
  s.next_id = r.u64();
  s.stats = sim::get_counters(r);
  return s;
}

void put_spans(sim::SnapshotWriter& w, const std::vector<CarriedSpan>& spans) {
  w.u64(spans.size());
  for (const CarriedSpan& span : spans) {
    w.str(span.alert_id);
    w.str(span.component);
    w.str(span.stage);
    w.time_point(span.start);
    w.time_point(span.end);
    w.str(span.detail);
  }
}

std::vector<CarriedSpan> get_spans(sim::SnapshotReader& r) {
  std::vector<CarriedSpan> out;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    CarriedSpan span;
    span.alert_id = r.str();
    span.component = r.str();
    span.stage = r.str();
    span.start = r.time_point();
    span.end = r.time_point();
    span.detail = r.str();
    out.push_back(std::move(span));
  }
  return out;
}

void put_checker(sim::SnapshotWriter& w,
                 const sim::InvariantChecker::State& s) {
  w.boolean(s.duplicates_allowed);
  w.u64(s.tracks.size());
  for (const sim::InvariantChecker::TrackState& track : s.tracks) {
    w.str(track.id);
    w.boolean(track.submitted);
    w.boolean(track.logged);
    w.boolean(track.acked);
    w.boolean(track.acked_logged);
    w.i64(track.ack_block);
    w.boolean(track.failed);
    w.boolean(track.shed);
    w.i64(track.coalesces);
    w.boolean(track.recoverable);
    w.i64(track.sightings);
    w.time_point(track.submitted_at);
    w.time_point(track.first_seen);
  }
}

sim::InvariantChecker::State get_checker(sim::SnapshotReader& r) {
  sim::InvariantChecker::State s;
  s.duplicates_allowed = r.boolean();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    sim::InvariantChecker::TrackState track;
    track.id = r.str();
    track.submitted = r.boolean();
    track.logged = r.boolean();
    track.acked = r.boolean();
    track.acked_logged = r.boolean();
    track.ack_block = static_cast<int>(r.i64());
    track.failed = r.boolean();
    track.shed = r.boolean();
    track.coalesces = static_cast<int>(r.i64());
    track.recoverable = r.boolean();
    track.sightings = static_cast<int>(r.i64());
    track.submitted_at = r.time_point();
    track.first_seen = r.time_point();
    s.tracks.push_back(std::move(track));
  }
  return s;
}

// --- Run shape --------------------------------------------------------------
// A checkpoint replays only under the run shape it was cut from. Each
// workload struct has one shape codec — the fields besides horizon and
// drain that decide its arrival plan and its scoring — and a shard
// image carries the encoded shape, which a resume compares byte for
// byte.

void put_shape(sim::SnapshotWriter& w, const PortalWorkloadOptions& o) {
  w.u32(static_cast<std::uint32_t>(o.traffic));
  w.f64(o.alerts_per_user_day);
}

void put_shape(sim::SnapshotWriter& w, const ChaosWorkloadOptions& o) {
  w.str(o.scenario.name);
  w.f64(o.alerts_per_user_day);
}

void put_shape(sim::SnapshotWriter& w, const StormWorkloadOptions& o) {
  w.str(o.scenario.name);
  w.f64(o.background_per_day);
  w.f64(o.critical_per_day);
  w.u32(static_cast<std::uint32_t>(o.sensor_cascades));
  w.u32(static_cast<std::uint32_t>(o.cascade_size));
  w.dur(o.cascade_spread);
  w.u32(static_cast<std::uint32_t>(o.poll_bursts));
  w.u32(static_cast<std::uint32_t>(o.burst_size));
  w.dur(o.burst_spread);
}

/// The workload's kind (the section id) and shape as one byte string.
std::string run_shape(const WorkloadOptions& workload) {
  sim::SnapshotWriter w(kShapeImageKind);
  w.begin_section(static_cast<std::uint32_t>(workload.index()));
  std::visit(
      [&w](const auto& o) {
        w.dur(o.horizon);
        w.dur(o.drain);
        put_shape(w, o);
      },
      workload);
  w.end_section();
  return w.finish();
}

// --- Shard image ------------------------------------------------------------

std::string encode_shard(const ResumableOptions& o, const ShardTask& task,
                         const ShardDriver& d) {
  sim::SnapshotWriter w(kShardImageKind);

  w.begin_section(kSecMeta);
  w.u64(task.shard_id);
  w.u64(task.seed);
  w.u32(static_cast<std::uint32_t>(o.epochs));
  w.u32(d.next_epoch);
  w.dur(o.boundary_gap);
  w.str(run_shape(o.workload));
  w.end_section();

  w.begin_section(kSecClock);
  w.time_point(d.world.now);
  w.u64(d.world.events_processed);
  w.u64(d.world.sequence_counter);
  w.end_section();

  w.begin_section(kSecHost);
  put_host(w, d.world.host);
  w.end_section();

  w.begin_section(kSecUser);
  put_user(w, d.world.user);
  w.end_section();

  w.begin_section(kSecEmail);
  put_email_server(w, d.world.email);
  w.end_section();

  w.begin_section(kSecBus);
  sim::put_counters(w, d.world.bus_stats);
  w.end_section();

  w.begin_section(kSecTrace);
  put_spans(w, d.world.trace);
  w.end_section();

  w.begin_section(kSecPlan);
  w.u64(d.plan.size());
  for (const Arrival& arrival : d.plan) {
    w.time_point(arrival.t);
    w.u8(arrival.stream);
  }
  w.end_section();

  w.begin_section(kSecChecker);
  put_checker(w, d.checker.save_state());
  w.end_section();

  w.begin_section(kSecDriver);
  w.u64(d.sent_at.size());
  for (const auto& [id, t] : d.sent_at.sorted_items()) {
    w.str(id);
    w.time_point(t);
  }
  w.u64(d.acked.size());
  for (const auto& [id, ack] : d.acked.sorted_items()) {
    w.str(id);
    w.time_point(ack.completed_at);
    w.i64(ack.block_used);
  }
  sim::put_counters(w, d.health);
  w.end_section();

  return w.finish();
}

Result<ShardDriver> decode_shard(const ResumableOptions& o,
                                 const ShardTask& task,
                                 std::string_view image) {
  sim::SnapshotReader r(image, kShardImageKind);
  ShardDriver d;

  r.enter(kSecMeta);
  const std::uint64_t shard_id = r.u64();
  const std::uint64_t seed = r.u64();
  const std::uint32_t epochs = r.u32();
  d.next_epoch = r.u32();
  const Duration gap = r.dur();
  const std::string shape = r.str();
  r.leave();
  if (!r.ok()) return make_error(r.status().error());
  if (shard_id != task.shard_id || seed != task.seed) {
    return make_error("checkpoint shard identity mismatch (shard " +
                      std::to_string(shard_id) + ")");
  }
  // A checkpoint is only replayable under the exact run shape it was
  // cut from; a mismatch would silently diverge, so it is an error.
  if (epochs != static_cast<std::uint32_t>(o.epochs) ||
      gap != o.boundary_gap || shape != run_shape(o.workload)) {
    return make_error("checkpoint run-shape mismatch for shard " +
                      std::to_string(task.shard_id));
  }
  if (d.next_epoch == 0 || d.next_epoch >= epochs) {
    return make_error("checkpoint epoch out of range: " +
                      std::to_string(d.next_epoch));
  }

  r.enter(kSecClock);
  d.world.now = r.time_point();
  d.world.events_processed = r.u64();
  d.world.sequence_counter = r.u64();
  r.leave();

  r.enter(kSecHost);
  d.world.host = get_host(r);
  r.leave();

  r.enter(kSecUser);
  d.world.user = get_user(r);
  r.leave();

  r.enter(kSecEmail);
  d.world.email = get_email_server(r);
  r.leave();

  r.enter(kSecBus);
  d.world.bus_stats = sim::get_counters(r);
  r.leave();

  r.enter(kSecTrace);
  d.world.trace = get_spans(r);
  r.leave();

  r.enter(kSecPlan);
  bool streams_known = true;
  const std::uint64_t arrivals = r.u64();
  for (std::uint64_t i = 0; i < arrivals && r.ok(); ++i) {
    Arrival arrival;
    arrival.t = r.time_point();
    arrival.stream = r.u8();
    streams_known = streams_known && arrival.stream < kStreamCount;
    d.plan.push_back(arrival);
  }
  r.leave();

  r.enter(kSecChecker);
  const sim::InvariantChecker::State checker_state = get_checker(r);
  r.leave();

  r.enter(kSecDriver);
  const std::uint64_t sent = r.u64();
  for (std::uint64_t i = 0; i < sent && r.ok(); ++i) {
    std::string id = r.str();
    const TimePoint t = r.time_point();
    d.sent_at.emplace(std::move(id), t);
  }
  const std::uint64_t acks = r.u64();
  for (std::uint64_t i = 0; i < acks && r.ok(); ++i) {
    std::string id = r.str();
    Ack ack;
    ack.completed_at = r.time_point();
    ack.block_used = static_cast<int>(r.i64());
    d.acked.emplace(std::move(id), ack);
  }
  d.health = sim::get_counters(r);
  r.leave();

  const Status status = r.finish();
  if (!status.ok()) return make_error(status.error());
  if (!streams_known) {
    return make_error("checkpoint plan names an unknown arrival stream");
  }
  d.checker.restore_state(checker_state);
  return d;
}

// --- Epoch machinery --------------------------------------------------------

Duration horizon_of(const WorkloadOptions& workload) {
  return std::visit([](const auto& o) { return o.horizon; }, workload);
}

/// Boundary i of the horizon's `epochs` equal windows: 0 is the start
/// of time, `epochs` the horizon.
TimePoint epoch_boundary(const ResumableOptions& o, int i) {
  return kTimeZero + Duration{horizon_of(o.workload).count() *
                              static_cast<std::int64_t>(i) /
                              static_cast<std::int64_t>(o.epochs)};
}

/// The world every epoch of a shard is built from: the workload's own
/// knobs plus the plumbing its arrivals and its scoring need.
UserWorldOptions shard_world(const WorkloadOptions& workload,
                             const ShardTask& task, ShardDriver& d) {
  UserWorldOptions world =
      std::visit([](const auto& o) { return o.world; }, workload);
  world.user = "user" + std::to_string(task.shard_id);
  world.fault_horizon = horizon_of(workload);
  if (const auto* portal = std::get_if<PortalWorkloadOptions>(&workload)) {
    world.with_source = portal->traffic == Traffic::kSourceIm;
    return world;
  }
  if (const auto* chaos = std::get_if<ChaosWorkloadOptions>(&workload)) {
    world.chaos = chaos->scenario;
  } else {
    world.chaos = std::get<StormWorkloadOptions>(workload).scenario;
    world.storm_config = true;
  }
  // Chaos and storm: a library source under the fault mix, every alert
  // followed by the checker that spans epochs, and always traced — a
  // violated invariant must be able to print the offending alert's
  // lifecycle, and traces consume no randomness and schedule no events.
  world.with_source = true;
  world.trace = true;
  world.shared_invariants = &d.checker;
  return world;
}

/// Realizes the full arrival schedule from the shard seed (epoch 0
/// only), stream by stream in a fixed order, then drops arrivals inside
/// the quiesce window before each interior boundary.
void build_plan(UserWorld& world, const ResumableOptions& o, ShardDriver& d) {
  std::vector<Arrival>& plan = d.plan;
  const TimePoint start = world.sim.now();
  const TimePoint end = kTimeZero + horizon_of(o.workload);
  // Poisson arrivals at `per_day` until the horizon.
  const auto poisson = [&](Rng& rng, double per_day, std::uint8_t stream) {
    if (per_day <= 0.0) return;
    const Duration mean_gap{
        static_cast<std::int64_t>(86400.0 / per_day * 1e6)};
    TimePoint t = start;
    while (true) {
      t += rng.exponential_duration(mean_gap);
      if (t >= end) break;
      plan.push_back(Arrival{t, stream});
    }
  };
  // `count` clusters at uniform instants, each `size` arrivals spread
  // over about `spread`.
  const auto clusters = [&](Rng& rng, int count, int size, Duration spread,
                            std::uint8_t stream) {
    const Duration mean_gap{static_cast<std::int64_t>(
        to_seconds(spread) / std::max(1, size) * 1e6)};
    for (int c = 0; c < count; ++c) {
      TimePoint t =
          start + rng.uniform_duration(Duration::zero(), end - start);
      for (int i = 0; i < size; ++i) {
        if (i > 0) t += rng.exponential_duration(mean_gap);
        if (t >= end) break;
        plan.push_back(Arrival{t, stream});
      }
    }
  };
  if (const auto* portal = std::get_if<PortalWorkloadOptions>(&o.workload)) {
    Rng rng = world.sim.make_rng("portal");
    poisson(rng, portal->alerts_per_user_day,
            portal->traffic == Traffic::kPortalEmail ? kStreamPortalMail
                                                     : kStreamPortalSource);
  } else if (const auto* chaos =
                 std::get_if<ChaosWorkloadOptions>(&o.workload)) {
    Rng rng = world.sim.make_rng("chaos.load");
    poisson(rng, chaos->alerts_per_user_day, kStreamChaos);
  } else {
    // The storm: background floor, sparse criticals, then the
    // correlated bursts admission control exists for — Aladdin sensor
    // cascades (one trigger, many sensors, seconds apart) and proxy
    // poll bursts (one poll cycle, many changed pages).
    const auto& storm = std::get<StormWorkloadOptions>(o.workload);
    Rng rng = world.sim.make_rng("storm.load");
    poisson(rng, storm.background_per_day, kStreamBackground);
    poisson(rng, storm.critical_per_day, kStreamCritical);
    clusters(rng, storm.sensor_cascades, storm.cascade_size,
             storm.cascade_spread, kStreamCascade);
    clusters(rng, storm.poll_bursts, storm.burst_size, storm.burst_spread,
             kStreamBurst);
  }
  // Quiesce: no arrivals this close before an interior boundary, so
  // source-side deliveries resolve before the planned restart.
  std::erase_if(plan, [&](const Arrival& a) {
    for (int j = 1; j < o.epochs; ++j) {
      const TimePoint b = epoch_boundary(o, j);
      if (a.t >= b - o.boundary_gap && a.t < b) return true;
    }
    return false;
  });
}

/// Schedules the plan's arrivals with from <= t < to into this epoch's
/// kernel, in plan order: mail straight into the buddy's mailbox, or a
/// library-source alert whose id lives in the shard bump arena and
/// whose outcome feeds the checker or the portal's ack record.
void schedule_arrivals(UserWorld& world, const ShardTask& task,
                       ShardDriver& d, TimePoint from, TimePoint to) {
  for (std::size_t n = 0; n < d.plan.size(); ++n) {
    const Arrival arrival = d.plan[n];
    if (arrival.t < from || arrival.t >= to) continue;
    const Stream* stream = &kStreams[arrival.stream];
    if (stream->source == nullptr) {
      world.sim.at(arrival.t, [&world, n, stream] {
        email::Email mail;
        mail.from = "Yahoo! Alerts - Stocks <alerts@yahoo.example>";
        mail.to = world.host->email_address();
        mail.subject = stream->subject_prefix + std::to_string(n);
        world.email_server.submit(std::move(mail));
      });
      continue;
    }
    // Closures capture a 16-byte view instead of a string; the arena
    // rewinds in one step at the epoch boundary.
    char shard_buf[20];
    char number_buf[20];
    const std::string_view id = world.id_arena.concat(
        {"s", util::format_u64(task.shard_id, shard_buf), "-",
         util::format_u64(n, number_buf)});
    world.sim.at(arrival.t, [&world, &d, id, n, stream] {
      core::Alert alert;
      // std::string rvalues: sidestep a GCC 12 -Werror=restrict false
      // positive on the const char* assign path at -O2.
      alert.source = std::string(stream->source);
      alert.native_category = std::string(stream->native);
      alert.subject = stream->subject_prefix + std::to_string(n);
      alert.high_importance = stream->critical;
      alert.id = std::string(id);
      alert.created_at = world.sim.now();
      if (stream->checked) d.checker.on_submitted(alert.id, world.sim.now());
      world.source->send_alert(
          alert, [&world, &d, id, checked = stream->checked](
                     const core::DeliveryOutcome& outcome) {
            if (!checked) {
              if (outcome.delivered) {
                d.acked.emplace(id,
                                Ack{outcome.completed_at, outcome.block_used});
              }
              return;
            }
            const std::string id_str(id);
            if (outcome.delivered) {
              // Probe the pessimistic log at the instant the source
              // learns of success: log-before-ack demands the record
              // is already on disk for a primary-leg (block 0) ack.
              d.checker.on_acked(id_str, outcome.block_used,
                                 world.host->alert_log().contains(id_str),
                                 outcome.completed_at);
            } else {
              d.checker.on_failed(id_str, outcome.completed_at);
            }
          });
    });
  }
}

/// Copies the counters whose names start with one of `prefixes` from a
/// component bag into the shard result.
void copy_prefixed(const Counters& from,
                   std::initializer_list<std::string_view> prefixes,
                   Counters& into) {
  for (const auto& [name, value] : from.all()) {
    for (const std::string_view prefix : prefixes) {
      if (std::string_view(name).starts_with(prefix)) {
        into.bump(name, value);
        break;
      }
    }
  }
}

/// Final-epoch scoring, while the last world is still alive, over the
/// whole run's history (sightings, the checker, and all counter bags
/// span every epoch via WorldState).
ShardResult score_shard(UserWorld& world, const WorkloadOptions& workload,
                        const ShardTask& task, ShardDriver& d) {
  ShardResult result;
  const auto* portal = std::get_if<PortalWorkloadOptions>(&workload);
  const bool storm = std::holds_alternative<StormWorkloadOptions>(workload);

  // Submit time per alert id. The MAB assigns portal-mail ids, and its
  // observer recorded them; every other id is its plan index.
  util::FlatMap<std::string, TimePoint> sent_at;
  util::FlatSet<std::string> critical_ids;
  if (portal != nullptr && portal->traffic == Traffic::kPortalEmail) {
    sent_at = std::move(d.sent_at);
  } else {
    for (std::size_t n = 0; n < d.plan.size(); ++n) {
      std::string id =
          "s" + std::to_string(task.shard_id) + "-" + std::to_string(n);
      if (kStreams[d.plan[n].stream].critical) critical_ids.insert(id);
      sent_at.emplace(std::move(id), d.plan[n].t);
    }
  }

  if (portal == nullptr) {
    // Horizon-time sweep. An alert with no terminal state must still
    // be *recoverable*: in the persistent log (the restart scan will
    // process it) or unread in the buddy's mailbox (the next email pump
    // will). Anything else has been silently lost — the violation the
    // paper's whole architecture exists to prevent. Shed and coalesced
    // alerts are terminal and never reach this sweep.
    util::FlatSet<std::string> mailbox_ids;
    for (const email::Email& mail :
         world.email_server.mailbox(world.host->email_address())) {
      const auto it = mail.headers.find("alert_id");
      if (it != mail.headers.end()) mailbox_ids.insert(it->second);
    }
    for (const std::string& id : d.checker.unresolved()) {
      if (world.host->alert_log().contains(id) || mailbox_ids.count(id) > 0) {
        d.checker.on_recoverable(id);
      }
    }
    // Acked-as-logged records must still be present now (a torn append
    // can only ever hit an unacked record).
    sim::InvariantChecker::LoggedNowMap logged_now;
    for (const auto& [id, submitted] : sent_at) {
      (void)submitted;
      logged_now[id] = world.host->alert_log().contains(id);
    }
    const sim::InvariantChecker::Report report = d.checker.check(&logged_now);
    report.export_to(result.counters);
    if (!report.ok()) {
      result.violation_details = report.describe(world.trace.get());
    }
  }

  // Delivery scoring. sorted_items() keeps every Summary's add order
  // deterministic.
  const auto sent = static_cast<std::int64_t>(d.plan.size());
  result.counters.bump("alerts.sent", sent);
  if (storm) {
    result.counters.bump("alerts.critical",
                         static_cast<std::int64_t>(critical_ids.size()));
  }
  std::int64_t delivered = 0;
  std::int64_t critical_delivered = 0;
  std::int64_t duplicates = 0;
  for (const auto& [id, submitted] : sent_at.sorted_items()) {
    const auto seen = world.user->first_seen(id);
    if (!seen) continue;
    ++delivered;
    const double latency = to_seconds(*seen - submitted);
    result.delivery_latency.add(latency);
    result.delivery_histogram.add(latency);
    if (critical_ids.count(id) > 0) {
      ++critical_delivered;
      result.critical_latency.add(latency);
    }
    duplicates += world.user->sightings(id) - 1;
  }
  result.counters.bump("alerts.delivered", delivered);
  if (storm) {
    result.counters.bump("alerts.critical_delivered", critical_delivered);
  }
  result.counters.bump("alerts.lost", sent - delivered);
  result.counters.bump("alerts.duplicates", duplicates);

  if (portal != nullptr) {
    result.counters.merge(d.health);
    // Conservation: every sighting must trace back to a send this shard
    // made — the user cannot have seen an invented alert.
    result.counters.bump(
        "conservation.invented",
        static_cast<std::int64_t>(world.user->alerts_seen()) - delivered);
    if (portal->traffic == Traffic::kSourceIm) {
      // Log-before-ack: an IM-leg acknowledgement (block 0) means the
      // pessimistic log persisted the alert before the ack went out.
      for (const auto& [id, ack] : d.acked.sorted_items()) {
        result.ack_latency.add(to_seconds(ack.completed_at - sent_at[id]));
        if (ack.block_used == 0 && !world.host->alert_log().contains(id)) {
          result.counters.bump("conservation.ack_unlogged");
        }
      }
      result.counters.bump("alerts.acked",
                           static_cast<std::int64_t>(d.acked.size()));
    }
  } else {
    // How much chaos actually bit, for scenario sanity checks.
    copy_prefixed(world.bus.stats(), {"chaos.", "dropped.chaos"},
                  result.counters);
    copy_prefixed(world.host->stats(), {"chaos.", "power_losses"},
                  result.counters);
    copy_prefixed(world.host->alert_log().stats(), {"torn_appends"},
                  result.counters);
  }
  if (storm) {
    // Overload accounting, aggregated across MAB incarnations, plus the
    // transport sheds.
    copy_prefixed(world.host->mab_stats_total(),
                  {"admission.", "coalesce.", "inbox.", "routing.shed"},
                  result.counters);
    copy_prefixed(world.bus.stats(), {"pending.shed"}, result.counters);
  }

  result.events_processed = world.sim.events_processed();
  if (world.trace) result.trace = std::move(*world.trace);
  return result;
}

/// One shard's remaining epochs: rebuild the world (cold or from the
/// carried WorldState), feed it its window of the plan, run to the
/// boundary (or to horizon + drain on the last epoch), tear down. The
/// checkpoint, when requested, is encoded at the boundary — a pure
/// function of the driver, safe inside the parallel body.
ShardResult run_shard_epochs(const ResumableOptions& o, const ShardTask& task,
                             ShardDriver& d, int ckpt_epoch, bool stop) {
  const auto epochs = static_cast<std::uint32_t>(o.epochs);
  const auto* portal = std::get_if<PortalWorkloadOptions>(&o.workload);
  for (std::uint32_t epoch = d.next_epoch; epoch < epochs; ++epoch) {
    UserWorldOptions world_options = shard_world(o.workload, task, d);
    world_options.resume = epoch > 0 ? &d.world : nullptr;
    UserWorld world(task.seed, world_options);

    if (epoch == 0) build_plan(world, o, d);

    // Portal: the MAB's observer supplies each mail alert's submit time
    // (created_at == mail.submitted_at), and a probe samples the MAB's
    // availability. The probe captures this epoch's world, so it must
    // die with it — ScopedTask guarantees the cancel.
    std::optional<sim::ScopedTask> health_probe;
    if (portal != nullptr) {
      if (portal->traffic == Traffic::kPortalEmail) {
        world.host->set_alert_observer(
            [&d](const core::Alert& alert, TimePoint) {
              d.sent_at.emplace(alert.id, alert.created_at);
            });
      }
      health_probe.emplace(world.sim.every(
          minutes(10),
          [&d, &world] {
            d.health.bump("health.samples");
            if (world.host->healthy()) d.health.bump("health.healthy");
          },
          "fleet.health"));
    }

    const bool last = epoch + 1 == epochs;
    const TimePoint boundary = epoch_boundary(o, static_cast<int>(epoch) + 1);
    schedule_arrivals(world, task, d,
                      epoch_boundary(o, static_cast<int>(epoch)), boundary);
    world.sim.run_until(
        last ? boundary + std::visit([](const auto& w) { return w.drain; },
                                     o.workload)
             : boundary);

    // Epoch boundary: every closure holding an arena view has fired
    // (or dies with this world); rewind the id scratch in O(1).
    world.id_arena.reset();

    if (last) return score_shard(world, o.workload, task, d);

    d.world = save_world_state(world);
    d.next_epoch = epoch + 1;
    if (static_cast<int>(epoch) + 1 == ckpt_epoch) {
      d.image = encode_shard(o, task, d);
      if (stop) return ShardResult{};  // the run dies here; only the
                                       // checkpoint image survives
    }
  }
  return ShardResult{};
}

// --- Fleet image ------------------------------------------------------------

std::string encode_fleet(const ResumableOptions& o,
                         const std::vector<ShardDriver>& drivers,
                         std::uint32_t next_epoch) {
  sim::SnapshotWriter w(kFleetImageKind);
  w.begin_section(kSecFleetMeta);
  w.u64(o.fleet.base_seed);
  w.u64(drivers.size());
  w.u32(static_cast<std::uint32_t>(o.epochs));
  w.u32(next_epoch);
  w.end_section();
  for (const ShardDriver& d : drivers) {
    w.begin_section(kSecFleetShard);
    w.str(d.image);
    w.end_section();
  }
  return w.finish();
}

Result<std::vector<ShardDriver>> decode_fleet(const ResumableOptions& o,
                                              std::string_view image) {
  sim::SnapshotReader r(image, kFleetImageKind);
  r.enter(kSecFleetMeta);
  const std::uint64_t base_seed = r.u64();
  const std::uint64_t shards = r.u64();
  const std::uint32_t epochs = r.u32();
  const std::uint32_t next_epoch = r.u32();
  r.leave();
  if (!r.ok()) return make_error(r.status().error());
  if (base_seed != o.fleet.base_seed || shards != o.fleet.shards) {
    return make_error("fleet checkpoint seed/shard-count mismatch");
  }
  if (epochs != static_cast<std::uint32_t>(o.epochs) || next_epoch == 0 ||
      next_epoch >= epochs) {
    return make_error("fleet checkpoint epoch mismatch");
  }
  std::vector<std::string> blobs;
  for (std::uint64_t i = 0; i < shards && r.ok(); ++i) {
    r.enter(kSecFleetShard);
    blobs.push_back(r.str());
    r.leave();
  }
  const Status status = r.finish();
  if (!status.ok()) return make_error(status.error());

  std::vector<ShardDriver> drivers;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const ShardTask task{i, shard_seed(o.fleet.base_seed, i)};
    Result<ShardDriver> decoded = decode_shard(o, task, blobs[i]);
    if (!decoded.ok()) {
      return make_error("shard " + std::to_string(i) + ": " +
                        decoded.error());
    }
    if (decoded.value().next_epoch != next_epoch) {
      return make_error("shard " + std::to_string(i) +
                        ": epoch disagrees with fleet meta");
    }
    drivers.push_back(std::move(decoded).take());
  }
  return drivers;
}

// --- Shared run loop --------------------------------------------------------

ResumableRun run_epochs(const ResumableOptions& o, const ResumeControl& control,
                        Counters* ckpt_stats,
                        std::vector<ShardDriver>& drivers) {
  const bool want_ckpt = control.checkpoint_after_epoch > 0 &&
                         control.checkpoint_after_epoch < o.epochs;
  const int ckpt_epoch = want_ckpt ? control.checkpoint_after_epoch : 0;
  const bool stop = want_ckpt && control.stop_at_checkpoint;

  ResumableRun run;
  FleetReport report = run_fleet(o.fleet, [&](const ShardTask& task) {
    return run_shard_epochs(o, task, drivers[task.shard_id], ckpt_epoch, stop);
  });
  run.completed = !stop;
  if (run.completed) run.report = std::move(report);

  if (want_ckpt) {
    // A resumed run past the requested epoch has no image to cut.
    bool all_cut = !drivers.empty();
    for (const ShardDriver& d : drivers) all_cut = all_cut && !d.image.empty();
    if (all_cut) {
      run.checkpoint =
          encode_fleet(o, drivers, static_cast<std::uint32_t>(ckpt_epoch));
      if (ckpt_stats != nullptr) {
        ckpt_stats->bump("ckpt.saved",
                         static_cast<std::int64_t>(drivers.size()));
        ckpt_stats->bump("ckpt.bytes",
                         static_cast<std::int64_t>(run.checkpoint.size()));
      }
    }
  }
  return run;
}

/// One shard from a cold world to horizon + drain in a single epoch.
ShardResult run_one_epoch(const ShardTask& task, WorkloadOptions workload) {
  ResumableOptions options;
  options.workload = std::move(workload);
  options.epochs = 1;
  ShardDriver driver;
  return run_shard_epochs(options, task, driver, /*ckpt_epoch=*/0,
                          /*stop=*/false);
}

}  // namespace

ShardResult run_portal_shard(const ShardTask& task,
                             const PortalWorkloadOptions& options) {
  return run_one_epoch(task, options);
}

ShardResult run_chaos_shard(const ShardTask& task,
                            const ChaosWorkloadOptions& options) {
  return run_one_epoch(task, options);
}

ShardResult run_storm_shard(const ShardTask& task,
                            const StormWorkloadOptions& options) {
  return run_one_epoch(task, options);
}

ResumableRun run_resumable_fleet(const ResumableOptions& options,
                                 const ResumeControl& control,
                                 Counters* ckpt_stats) {
  std::vector<ShardDriver> drivers(options.fleet.shards);
  return run_epochs(options, control, ckpt_stats, drivers);
}

Result<ResumableRun> resume_fleet(const ResumableOptions& options,
                                  std::string_view image,
                                  const ResumeControl& control,
                                  Counters* ckpt_stats) {
  Result<std::vector<ShardDriver>> decoded = decode_fleet(options, image);
  if (!decoded.ok()) {
    if (ckpt_stats != nullptr) ckpt_stats->bump("ckpt.decode_failed");
    return make_error(decoded.error());
  }
  std::vector<ShardDriver> drivers = std::move(decoded).take();
  if (ckpt_stats != nullptr) {
    ckpt_stats->bump("ckpt.restored",
                     static_cast<std::int64_t>(drivers.size()));
  }
  return run_epochs(options, control, ckpt_stats, drivers);
}

}  // namespace simba::fleet
