#include "fleet/user_world.h"

#include <utility>

#include "core/coalescer.h"
#include "fleet/world_state.h"
#include "sim/fault.h"

namespace simba::fleet {

namespace {

// Drops fault windows that closed before the restore instant: their
// sim.at() triggers would otherwise clamp to the restored clock and
// re-fire long-finished outages at epoch start. Windows straddling the
// boundary stay — their down edge clamps to now, which is exactly the
// state the resource was in when the checkpoint was cut.
sim::OutagePlan drop_finished(const sim::OutagePlan& plan, TimePoint now) {
  sim::OutagePlan filtered;
  for (const sim::Outage& outage : plan.outages()) {
    if (outage.end <= now) continue;
    filtered.add(outage.start, outage.length());
  }
  return filtered;
}

}  // namespace

core::MabConfig fleet_config(const std::string& owner,
                             const std::string& sms_address,
                             const std::string& email_address,
                             bool storm_config) {
  using namespace core;
  MabConfig config;
  config.profile = UserProfile(owner);
  auto& book = config.profile.addresses();
  book.put(Address{"MSN IM", CommType::kIm, owner, true});
  book.put(Address{"Cell SMS", CommType::kSms, sms_address, true});
  book.put(Address{"Home email", CommType::kEmail, email_address, true});

  DeliveryMode urgent("Urgent");
  urgent.add_block(seconds(30)).actions.push_back(
      DeliveryAction{"MSN IM", true});
  urgent.add_block(minutes(2)).actions.push_back(
      DeliveryAction{"Cell SMS", false});
  urgent.add_block(minutes(2)).actions.push_back(
      DeliveryAction{"Home email", false});
  config.profile.define_mode(urgent);
  DeliveryMode casual("Casual");
  casual.add_block(minutes(2)).actions.push_back(
      DeliveryAction{"Home email", false});
  config.profile.define_mode(casual);

  // The SIMBA-library source (IM-with-ack path) and the legacy portal
  // mail path (category keyword in the sender display name).
  config.classifier.add_rule(
      SourceRule{"src", KeywordLocation::kNativeCategory, {}, ""});
  config.classifier.add_rule(SourceRule{"alerts@yahoo.example",
                                        KeywordLocation::kSenderName,
                                        {"Stocks", "Weather", "Sports"},
                                        "http://alerts.yahoo.example"});

  config.categories.map_keyword("K", "Cat");
  config.categories.map_keyword("Stocks", "Investment");
  config.categories.map_keyword("Weather", "News");
  config.categories.map_keyword("Sports", "News");

  auto& subs = config.subscriptions;
  subs.subscribe("Cat", owner, "Urgent");
  subs.subscribe("Investment", owner, "Casual");
  subs.subscribe("News", owner, "Urgent");

  if (storm_config) {
    // Storm plumbing (DESIGN.md §14): Aladdin sensor cascades ride the
    // urgent IM path, proxy poll bursts the casual email path. Purely
    // additive — the legacy rules, keywords, and subscriptions above
    // are untouched, so non-storm traffic classifies exactly as before.
    config.classifier.add_rule(
        SourceRule{"aladdin", KeywordLocation::kNativeCategory, {}, ""});
    config.classifier.add_rule(
        SourceRule{"proxy", KeywordLocation::kNativeCategory, {}, ""});
    config.categories.map_keyword("Motion", "Aladdin");
    config.categories.map_keyword("Poll", "Portal");
    subs.subscribe("Aladdin", owner, "Urgent");
    subs.subscribe("Portal", owner, "Casual");
  }
  return config;
}

void apply_channel_models(ModelFidelity fidelity, net::MessageBus& bus,
                          email::EmailServer& email_server,
                          sms::SmsGateway& sms_gateway) {
  net::LinkModel im_link;
  email::EmailDelayModel mail;
  sms::SmsDelayModel sms_model;
  im_link.base_latency = millis(150);
  if (fidelity == ModelFidelity::kFast) {
    // IM ~150-350 ms per hop, email seconds, SMS tens of seconds; no
    // tails and no loss.
    im_link.jitter = millis(200);
    im_link.loss_probability = 0.0;
    mail.fast_probability = 1.0;
    mail.fast_median = seconds(6);
    mail.fast_sigma = 0.3;
    mail.loss_probability = 0.0;
    sms_model.fast_probability = 1.0;
    sms_model.fast_median = seconds(12);
    sms_model.fast_sigma = 0.3;
    sms_model.loss_probability = 0.0;
  } else {
    // IM hop: corporate network + IM service; 150-450 ms per hop gives
    // the paper's sub-second one-way time over the two-hop path.
    im_link.jitter = millis(300);
    im_link.loss_probability = 0.001;
    // Email: mostly seconds-to-a-minute, 5% multi-hour tail reaching
    // days, a little silent loss — Section 3.1's "seconds to days".
    mail.fast_probability = 0.95;
    mail.fast_median = seconds(20);
    mail.fast_sigma = 1.0;
    mail.slow_median = hours(2);
    mail.slow_sigma = 1.4;
    mail.loss_probability = 0.003;
    // SMS: "a similar range of unpredictability" per the paper.
    sms_model.fast_probability = 0.90;
    sms_model.fast_median = seconds(18);
    sms_model.fast_sigma = 0.9;
    sms_model.slow_median = minutes(45);
    sms_model.slow_sigma = 1.3;
    sms_model.loss_probability = 0.01;
  }
  bus.set_default_link(im_link);
  email_server.set_delay_model(mail);
  sms_gateway.set_delay_model(sms_model);
}

core::MabOptions calibrated_mab_options() {
  core::MabOptions options;
  options.processing_delay = millis(900);
  options.leak_mb_per_hour = 2.0;
  options.leak_mb_per_alert = 0.05;
  return options;
}

UserWorld::UserWorld(std::uint64_t seed, const UserWorldOptions& options)
    : sim(seed),
      bus(sim),
      im_server(sim, bus),
      email_server(sim),
      sms_gateway(sim, "sms.example.net") {
  if (options.resume != nullptr) {
    // Re-align the fresh kernel and restore the server-side state that
    // survives a machine restart, before any component is built on top
    // of it (the host and user endpoints create their mailboxes in
    // their constructors; EmailServer keeps restored contents).
    sim.restore_clock(options.resume->now, options.resume->events_processed,
                      options.resume->sequence_counter);
    email_server.restore_state(options.resume->email);
    bus.restore_stats(options.resume->bus_stats);
  }
  if (options.trace) {
    trace = std::make_unique<util::Trace>();
    if (options.resume != nullptr) {
      // Replay the pre-checkpoint span history so the full-run trace
      // is one contiguous, byte-identical stream.
      for (const CarriedSpan& span : options.resume->trace) {
        trace->emit_owned(span.alert_id, span.component, span.stage,
                          span.start, span.end, span.detail);
      }
    }
    bus.set_trace(trace.get());
  }
  apply_channel_models(options.fidelity, bus, email_server, sms_gateway);
  sms_gateway.attach_to(email_server);
  if (options.bus_pending_bound != 0) {
    bus.set_pending_bound(options.bus_pending_bound);
  }

  if (options.faults) {
    Rng outage_rng = sim.make_rng("fleet.outages");
    sim::OutagePlan im_plan = sim::OutagePlan::generate(
        outage_rng, options.fault_horizon, days(1.5), minutes(10), 1.0);
    if (options.resume != nullptr) {
      im_plan = drop_finished(im_plan, options.resume->now);
    }
    im_server.set_outage_plan(std::move(im_plan));
    im_server.set_session_reset_mtbf(days(1));
  }

  // Chaos: the whole schedule is a pure function of (seed, scenario,
  // horizon), derived before any component consumes randomness.
  if (!options.chaos.empty()) {
    chaos_plan = std::make_unique<sim::ChaosPlan>(seed, options.chaos,
                                                  options.fault_horizon);
    if (chaos_plan->net().any()) {
      bus.set_chaos(chaos_plan->net(), sim.make_rng("chaos.net"));
    }
  }
  if (options.shared_invariants == nullptr && options.track_invariants) {
    invariants = std::make_unique<sim::InvariantChecker>();
  }
  // Conservation sink for this world's observers: a caller-owned
  // checker that spans epoch rebuilds, or this world's own.
  sim::InvariantChecker* checker = options.shared_invariants != nullptr
                                       ? options.shared_invariants
                                       : invariants.get();

  core::UserEndpointOptions user_options;
  user_options.name = options.user;
  user_options.email_check_interval = options.email_check_interval;
  user_options.ack_reaction_mean = seconds(5);
  if (options.faults) {
    Rng away_rng(seed ^ 0x77);
    user_options.away_plan = sim::OutagePlan::generate(
        away_rng, options.fault_horizon, hours(5), hours(1), 0.8);
    if (options.resume != nullptr) {
      user_options.away_plan =
          drop_finished(user_options.away_plan, options.resume->now);
    }
  }
  user = std::make_unique<core::UserEndpoint>(sim, bus, im_server,
                                              email_server, sms_gateway,
                                              user_options);
  if (checker != nullptr) {
    user->set_sighting_observer(
        [checker](const std::string& id, const std::string& channel,
                  TimePoint at) {
          // Digest alerts are synthesized by the coalescer, never
          // submitted by a workload; feeding their sightings to the
          // checker would fabricate tracks with no submission.
          if (core::is_digest_alert_id(id)) return;
          checker->on_delivered(id, channel, at);
        });
  }
  if (options.resume != nullptr) user->restore_state(options.resume->user);
  user->start();

  core::MabHostOptions host_options;
  host_options.owner = options.user;
  host_options.trace = trace.get();
  host_options.config = fleet_config(options.user, user->sms_address(),
                                     user->email_account(),
                                     options.storm_config);
  if (options.fidelity == ModelFidelity::kCalibrated) {
    host_options.mab_options = calibrated_mab_options();
  }
  host_options.mab_options.overload = options.overload;
  if (options.faults) {
    gui::FaultProfile flaky;
    flaky.mean_time_to_hang = days(1);
    flaky.op_exception_probability = 1e-3;
    flaky.exception_op = "fetch_unread";
    host_options.im_client_profile = flaky;
  }
  if (chaos_plan) {
    // Power outages and torn appends must be armed before the host is
    // built (the host schedules its power events in its constructor).
    // On resume, outages that ended before the checkpoint are dropped
    // like every other finished fault window.
    for (const sim::Outage& outage : chaos_plan->host().power_plan.outages()) {
      if (options.resume != nullptr && outage.end <= options.resume->now) {
        continue;
      }
      host_options.power_plan.add(outage.start, outage.length());
    }
    host_options.torn_append_probability =
        chaos_plan->log().torn_append_probability;
  }
  host = std::make_unique<core::MabHost>(sim, bus, im_server, email_server,
                                         std::move(host_options));
  if (checker != nullptr) {
    host->set_shed_observer([checker](const std::string& id, TimePoint at) {
      // An engine-lane shed of a digest delivery reports the digest's
      // own "dg." id; only workload-submitted alerts have tracks.
      if (core::is_digest_alert_id(id)) return;
      checker->on_shed(id, at);
    });
    host->set_coalesce_observer(
        [checker](const std::string& id, TimePoint at) {
          checker->on_coalesced(id, at);
        });
  }
  if (options.resume != nullptr) host->restore_state(options.resume->host);
  host->start();
  if (chaos_plan) {
    // Process/machine triggers fire blindly at their scheduled times;
    // the host ignores any that land while the machine is down. On
    // resume, triggers at or before the checkpoint instant already
    // fired in a previous epoch (run_until fires events with when <=
    // boundary), so they are skipped rather than clamped to now.
    const TimePoint fired_until =
        options.resume != nullptr ? options.resume->now : TimePoint::min();
    for (TimePoint t : chaos_plan->host().mab_kills) {
      if (t <= fired_until) continue;
      sim.at(t, [this] { host->inject_mab_crash(); }, "chaos.mab_kill");
    }
    for (TimePoint t : chaos_plan->host().mab_hangs) {
      if (t <= fired_until) continue;
      sim.at(t, [this] { host->inject_mab_hang(); }, "chaos.mab_hang");
    }
    for (TimePoint t : chaos_plan->host().reboots) {
      if (t <= fired_until) continue;
      sim.at(t, [this] { host->inject_reboot(); }, "chaos.reboot");
    }
  }
  sim.run_for(seconds(30));  // sign-in warm-up, as bench/common's Cast does

  if (options.with_source) {
    core::SourceEndpointOptions source_options;
    source_options.name = "src";
    source_options.im_block_timeout = seconds(30);
    source = std::make_unique<core::SourceEndpoint>(sim, bus, im_server,
                                                    email_server,
                                                    source_options);
    source->start();
    sim.run_for(seconds(10));
    source->set_target(host->im_address(), host->email_address());
  }
}

WorldState save_world_state(const UserWorld& world) {
  WorldState state;
  state.now = world.sim.now();
  state.events_processed = world.sim.events_processed();
  state.sequence_counter = world.sim.sequence_counter();
  state.host = world.host->save_state();
  state.user = world.user->save_state();
  state.email = world.email_server.save_state();
  state.bus_stats = world.bus.stats();
  if (world.trace) {
    state.trace.reserve(world.trace->size());
    for (const util::Span& span : world.trace->spans()) {
      state.trace.push_back(CarriedSpan{span.alert_id, span.component,
                                        span.stage, span.start, span.end,
                                        span.detail});
    }
  }
  return state;
}

}  // namespace simba::fleet
