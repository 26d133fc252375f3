// Focused unit tests for smaller components: the MDC watchdog driven
// directly, the legacy baseline deliverers, the digest store, the log
// utility, and user-endpoint behaviors.
#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/digest.h"
#include "core/mdc.h"
#include "core/user_endpoint.h"
#include "net/wire.h"
#include "test_world.h"
#include "util/log.h"

namespace simba {
namespace {

using core::MasterDaemonController;

// ---------------------------------------------------------------------------
// MDC driven directly through its probe/restart/reboot hooks.
// ---------------------------------------------------------------------------

class MdcTest : public ::testing::Test {
 protected:
  MasterDaemonController make(MasterDaemonController::Options options = {}) {
    return MasterDaemonController(
        sim_, options, [this] { return working_; },
        [this] {
          ++restarts_;
          working_ = true;  // restart heals by default
        },
        [this] { ++reboots_; });
  }

  sim::Simulator sim_{1};
  bool working_ = true;
  int restarts_ = 0;
  int reboots_ = 0;
};

TEST_F(MdcTest, HealthyDaemonNeverRestarted) {
  auto mdc = make();
  mdc.start();
  sim_.run_for(hours(2));
  EXPECT_EQ(restarts_, 0);
  EXPECT_GE(mdc.stats().get("heartbeats"), 30);
  EXPECT_TRUE(mdc.daemon_up());
}

TEST_F(MdcTest, MissedHeartbeatTriggersRestart) {
  auto mdc = make();
  mdc.start();
  sim_.run_for(minutes(10));
  working_ = false;  // daemon hangs
  sim_.run_for(minutes(5));  // next 3-min heartbeat catches it
  EXPECT_EQ(restarts_, 1);
  EXPECT_EQ(mdc.stats().get("missed_heartbeats"), 1);
  EXPECT_TRUE(working_);  // healed by the restart hook
}

TEST_F(MdcTest, TerminationNotificationRestartsWithoutWaitingForHeartbeat) {
  MasterDaemonController::Options options;
  options.restart_delay = seconds(10);
  auto mdc = make(options);
  mdc.start();
  working_ = false;
  mdc.notify_terminated("crash", /*expected=*/false);
  EXPECT_FALSE(mdc.daemon_up());
  sim_.run_for(seconds(15));
  EXPECT_EQ(restarts_, 1);
  EXPECT_TRUE(mdc.daemon_up());
  EXPECT_EQ(mdc.stats().get("restarts"), 1);
}

TEST_F(MdcTest, ExpectedTerminationCountsAsRejuvenationNotFailure) {
  auto mdc = make();
  mdc.start();
  mdc.notify_terminated("nightly", /*expected=*/true);
  sim_.run_for(minutes(1));
  EXPECT_EQ(mdc.stats().get("rejuvenation_restarts"), 1);
  EXPECT_EQ(mdc.stats().get("restarts"), 0);
  EXPECT_EQ(restarts_, 1);  // still relaunched
}

TEST_F(MdcTest, ConsecutiveFailuresExceedThresholdRebootMachine) {
  MasterDaemonController::Options options;
  options.max_failed_restarts = 3;
  options.check_interval = minutes(3);
  // Restarts that never heal: the probe keeps failing.
  working_ = false;
  int count = 0;
  MasterDaemonController mdc(
      sim_, options, [this] { return working_; },
      [&count] { ++count; /* restart does NOT heal */ },
      [this] { ++reboots_; });
  mdc.start();
  sim_.run_for(hours(1));
  EXPECT_GE(reboots_, 1);
  EXPECT_GE(count, 3);
}

TEST_F(MdcTest, SuccessResetsConsecutiveFailureCount) {
  MasterDaemonController::Options options;
  options.max_failed_restarts = 2;
  auto mdc = make(options);
  mdc.start();
  for (int cycle = 0; cycle < 4; ++cycle) {
    working_ = false;          // one failure...
    sim_.run_for(minutes(4));  // ...detected and healed
    sim_.run_for(minutes(10)); // several healthy heartbeats reset the count
  }
  EXPECT_EQ(reboots_, 0);  // never consecutive enough to reboot
  EXPECT_EQ(restarts_, 4);
}

TEST_F(MdcTest, StopCancelsPendingWork) {
  auto mdc = make();
  mdc.start();
  working_ = false;
  sim_.run_for(minutes(4));  // detection happened, restart pending
  mdc.stop();
  const int restarts_at_stop = restarts_;
  sim_.run_for(hours(1));
  EXPECT_EQ(restarts_, restarts_at_stop);
}

// ---------------------------------------------------------------------------
// Legacy baseline deliverers.
// ---------------------------------------------------------------------------

TEST(LegacyDelivererTest, PolicyMessageCounts) {
  sim::Simulator sim(1);
  email::EmailServer server(sim);
  server.create_mailbox("u@home");
  core::LegacyDeliverer email_only(server, "svc@x",
                                   core::LegacyDeliverer::Policy::kEmailOnly);
  email_only.set_user_email("u@home");
  core::Alert alert;
  alert.id = "a";
  alert.subject = "s";
  EXPECT_EQ(email_only.send(alert), 1);

  core::LegacyDeliverer shotgun(
      server, "svc@x", core::LegacyDeliverer::Policy::kDoubleEmailDoubleSms);
  shotgun.set_user_email("u@home");
  // No SMS address configured: only the two emails go out.
  EXPECT_EQ(shotgun.send(alert), 2);
  server.create_mailbox("15551234@sms.example");
  shotgun.set_user_sms("15551234@sms.example");
  EXPECT_EQ(shotgun.send(alert), 4);
  sim.run();
  // 1 + 2 + 2 emails to the mailbox, 2 to the SMS address.
  EXPECT_EQ(server.mailbox("u@home").size(), 5u);
  EXPECT_EQ(server.mailbox("15551234@sms.example").size(), 2u);
}

TEST(LegacyDelivererTest, RelayFailureCounted) {
  sim::Simulator sim(1);
  email::EmailServer server(sim);
  sim::OutagePlan plan;
  plan.add(kTimeZero, hours(1));
  server.set_outage_plan(plan);
  server.create_mailbox("u@home");
  core::LegacyDeliverer deliverer(server, "svc@x",
                                  core::LegacyDeliverer::Policy::kEmailOnly);
  deliverer.set_user_email("u@home");
  core::Alert alert;
  alert.id = "a";
  deliverer.send(alert);
  EXPECT_EQ(deliverer.stats().get("submit_failed"), 1);
}

TEST(LegacyDelivererTest, PolicyNames) {
  EXPECT_STREQ(core::to_string(core::LegacyDeliverer::Policy::kEmailOnly),
               "email-only");
  EXPECT_STREQ(
      core::to_string(core::LegacyDeliverer::Policy::kDoubleEmailDoubleSms),
      "2-email+2-sms");
}

// ---------------------------------------------------------------------------
// DigestStore.
// ---------------------------------------------------------------------------

TEST(DigestStoreTest, AddRenderDrain) {
  core::DigestStore store;
  EXPECT_TRUE(store.empty());
  core::Alert a;
  a.subject = "Garage Door Sensor OFF";
  a.source = "aladdin";
  store.add(a, "Home Routine", kTimeZero + hours(3));
  core::Alert b;
  b.subject = "MSFT at $99";
  b.source = "alerts@yahoo.example";
  store.add(b, "Investment", kTimeZero + hours(4));
  EXPECT_EQ(store.size(), 2u);

  const std::string body = store.render_body();
  EXPECT_NE(body.find("[Home Routine]"), std::string::npos);
  EXPECT_NE(body.find("[Investment]"), std::string::npos);
  EXPECT_NE(body.find("Garage Door Sensor OFF"), std::string::npos);
  EXPECT_NE(body.find("aladdin"), std::string::npos);
  EXPECT_NE(body.find("2 alert(s)"), std::string::npos);

  const auto drained = store.drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.stats().get("retained"), 2);
}

TEST(DigestStoreTest, GroupsMultiplePerCategory) {
  core::DigestStore store;
  for (int i = 0; i < 3; ++i) {
    core::Alert a;
    a.subject = "s" + std::to_string(i);
    store.add(a, "Cat", kTimeZero + minutes(i));
  }
  const std::string body = store.render_body();
  // One category header, three lines.
  EXPECT_EQ(body.find("[Cat]"), body.rfind("[Cat]"));
  EXPECT_NE(body.find("s0"), std::string::npos);
  EXPECT_NE(body.find("s2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Log utility.
// ---------------------------------------------------------------------------

TEST(LogTest, ThresholdFiltersAndSinkReceives) {
  std::vector<std::string> lines;
  Log::set_sink([&](const std::string& line) { lines.push_back(line); });
  const LogLevel old = Log::threshold();
  Log::set_threshold(LogLevel::kWarn);
  log_info("comp", "too quiet");
  log_warn("comp", "heard");
  log_error("comp", "also heard");
  Log::set_threshold(old);
  Log::clear_sink();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("WARN"), std::string::npos);
  EXPECT_NE(lines[0].find("[comp] heard"), std::string::npos);
}

TEST(LogTest, TimeSourceStampsVirtualTime) {
  std::vector<std::string> lines;
  Log::set_sink([&](const std::string& line) { lines.push_back(line); });
  Log::set_time_source([] { return kTimeZero + hours(1); });
  const LogLevel old = Log::threshold();
  Log::set_threshold(LogLevel::kInfo);
  log_info("comp", "stamped");
  Log::set_threshold(old);
  Log::clear_time_source();
  Log::clear_sink();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("0+01:00:00.000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// UserEndpoint behaviors.
// ---------------------------------------------------------------------------

TEST(UserEndpointTest, AwayUserSeesImOnlyOnReturn) {
  testing::World world(9);
  core::UserEndpointOptions options;
  options.name = "u";
  options.away_plan.add(kTimeZero, hours(2));  // away for two hours
  core::UserEndpoint user(world.sim, world.bus, world.im_server,
                          world.email_server, world.sms_gateway, options);
  user.start();
  // A plain IM sender.
  gui::Desktop desktop(world.sim);
  world.im_server.register_account("s");
  im::ImClientApp sender(world.sim, desktop, world.bus,
                         world.im_server.address(), "s", {}, {});
  sender.launch();
  sender.login(nullptr);
  world.sim.run_for(seconds(20));
  net::SimbaFields simba;
  simba.alert_id = "away-1";
  sender.send_im("u", "hello", simba, nullptr);
  world.sim.run_for(minutes(10));
  EXPECT_FALSE(user.first_seen("away-1").has_value());  // still away
  world.sim.run_until(kTimeZero + hours(2) + minutes(1));
  ASSERT_TRUE(user.first_seen("away-1").has_value());
  EXPECT_GE(*user.first_seen("away-1"), kTimeZero + hours(2));
}

TEST(UserEndpointTest, EmailSeenAtNextCheckWhileAtDesk) {
  testing::World world(10);
  core::UserEndpointOptions options;
  options.name = "u";
  options.email_check_interval = minutes(30);
  core::UserEndpoint user(world.sim, world.bus, world.im_server,
                          world.email_server, world.sms_gateway, options);
  user.start();
  email::Email mail;
  mail.from = "svc@x";
  mail.to = user.email_account();
  mail.subject = "s";
  mail.headers["alert_id"] = "em-check";
  ASSERT_TRUE(world.email_server.submit(std::move(mail)).ok());
  world.sim.run_for(minutes(45));
  ASSERT_TRUE(user.first_seen("em-check").has_value());
  EXPECT_EQ(user.first_seen_channel("em-check").value_or(""), "email");
  // Seen at a 30-minute check boundary, not at delivery time.
  const Duration seen_offset = *user.first_seen("em-check") - kTimeZero;
  EXPECT_EQ(seen_offset.count() % minutes(30).count(), 0);
}

TEST(UserEndpointTest, OfflinePlanKeepsImSignedOut) {
  testing::World world(11);
  core::UserEndpointOptions options;
  options.name = "u";
  options.im_offline_plan.add(kTimeZero + minutes(10), hours(1));
  core::UserEndpoint user(world.sim, world.bus, world.im_server,
                          world.email_server, world.sms_gateway, options);
  user.start();
  world.sim.run_for(minutes(5));
  EXPECT_TRUE(world.im_server.online("u"));
  world.sim.run_until(kTimeZero + minutes(30));
  EXPECT_FALSE(world.im_server.online("u"));
  world.sim.run_until(kTimeZero + hours(2));
  EXPECT_TRUE(world.im_server.online("u"));
}

TEST(UserEndpointTest, SmsAddressEmbedsPhoneNumber) {
  // The privacy problem from Section 1: the SMS address contains the
  // cell number — which is why it must only ever be given to the buddy.
  testing::World world(12);
  core::UserEndpointOptions options;
  options.name = "u";
  options.phone_number = "4255559999";
  core::UserEndpoint user(world.sim, world.bus, world.im_server,
                          world.email_server, world.sms_gateway, options);
  EXPECT_EQ(user.sms_address(), "4255559999@sms.example.net");
}

}  // namespace
}  // namespace simba
