// Unit tests for the IM service substrate: server sessions/presence/
// outages and the flaky GUI client.
#include <gtest/gtest.h>

#include "im/im_client.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/simulator.h"

namespace simba::im {
namespace {

class ImTest : public ::testing::Test {
 protected:
  ImTest() {
    server_.register_account("alice");
    server_.register_account("bob");
  }

  std::unique_ptr<ImClientApp> make_client(const std::string& user,
                                           gui::FaultProfile profile = {},
                                           ImClientConfig config = {}) {
    auto client = std::make_unique<ImClientApp>(
        sim_, desktop_, bus_, server_.address(), user, profile, config);
    client->launch();
    return client;
  }

  void login(ImClientApp& client) {
    Status result = Status::failure("no callback");
    client.login([&](Status s) { result = std::move(s); });
    sim_.run_for(seconds(15));
    ASSERT_TRUE(result.ok()) << result.error();
  }

  sim::Simulator sim_{1};
  net::MessageBus bus_{sim_};
  gui::Desktop desktop_{sim_};
  ImServer server_{sim_, bus_};
};

TEST_F(ImTest, LoginEstablishesPresence) {
  auto alice = make_client("alice");
  EXPECT_FALSE(server_.online("alice"));
  login(*alice);
  EXPECT_TRUE(alice->is_logged_in());
  EXPECT_TRUE(server_.online("alice"));
}

TEST_F(ImTest, LoginUnknownAccountRejected) {
  server_.register_account("alice");
  auto ghost = make_client("nobody");
  // "nobody" has no account; client must learn the login failed.
  Status result;
  ghost->login([&](Status s) { result = std::move(s); });
  sim_.run_for(seconds(15));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(ghost->is_logged_in());
}

TEST_F(ImTest, SendDeliversToOnlineRecipient) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  Status send_result;
  alice->send_im("bob", "hi bob", {}, [&](Status s) { send_result = s; });
  sim_.run_for(seconds(10));
  EXPECT_TRUE(send_result.ok()) << send_result.error();
  auto unread = bob->fetch_unread();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0].from_user, "alice");
  EXPECT_EQ(unread[0].body, "hi bob");
  EXPECT_NE(unread[0].seq, 0u);
  EXPECT_TRUE(bob->fetch_unread().empty());  // drained
}

TEST_F(ImTest, SendToOfflineRecipientFails) {
  auto alice = make_client("alice");
  login(*alice);
  Status send_result;
  alice->send_im("bob", "anyone there?", {},
                 [&](Status s) { send_result = s; });
  sim_.run_for(seconds(10));
  EXPECT_FALSE(send_result.ok());
  EXPECT_NE(send_result.error().find("offline"), std::string::npos);
}

TEST_F(ImTest, SendWithoutLoginFailsFast) {
  auto alice = make_client("alice");
  Status send_result;
  alice->send_im("bob", "x", {}, [&](Status s) { send_result = s; });
  EXPECT_FALSE(send_result.ok());
}

TEST_F(ImTest, NewMessageEventFires) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  int events = 0;
  bob->set_new_message_event([&] { ++events; });
  alice->send_im("bob", "ping", {}, nullptr);
  sim_.run_for(seconds(10));
  EXPECT_EQ(events, 1);
}

TEST_F(ImTest, EventLossLeavesUnreadForSweep) {
  auto alice = make_client("alice");
  ImClientConfig lossy;
  lossy.event_loss_probability = 1.0;
  auto bob = make_client("bob", {}, lossy);
  login(*alice);
  login(*bob);
  int events = 0;
  bob->set_new_message_event([&] { ++events; });
  alice->send_im("bob", "ping", {}, nullptr);
  sim_.run_for(seconds(10));
  EXPECT_EQ(events, 0);
  EXPECT_EQ(bob->unread_count(), 1u);  // message is there, event was lost
  EXPECT_EQ(bob->stats().get("new_message_events_lost"), 1);
}

TEST_F(ImTest, ForcedLogoutNotifiesClient) {
  auto alice = make_client("alice");
  login(*alice);
  server_.force_logout("alice");
  sim_.run_for(seconds(5));
  EXPECT_FALSE(alice->is_logged_in());
  EXPECT_FALSE(server_.online("alice"));
  EXPECT_EQ(alice->stats().get("logged_out_notices"), 1);
}

TEST_F(ImTest, SessionResetMtbfForcesLogouts) {
  server_.set_session_reset_mtbf(hours(4));
  auto alice = make_client("alice");
  login(*alice);
  sim_.run_for(days(2));
  EXPECT_GE(server_.stats().get("forced_logouts"), 1);
}

TEST_F(ImTest, OutageSilentlyIgnoresTraffic) {
  sim::OutagePlan plan;
  plan.add(kTimeZero + minutes(10), minutes(30));
  server_.set_outage_plan(plan);
  auto alice = make_client("alice");
  sim_.run_until(kTimeZero + minutes(15));
  EXPECT_TRUE(server_.down());
  Status result;
  bool called = false;
  alice->login([&](Status s) {
    result = std::move(s);
    called = true;
  });
  sim_.run_for(seconds(30));
  ASSERT_TRUE(called);
  EXPECT_FALSE(result.ok());  // timed out
  EXPECT_NE(result.error().find("timed out"), std::string::npos);
}

TEST_F(ImTest, OutageDropsSessionsAtOnset) {
  auto alice = make_client("alice");
  login(*alice);
  sim::OutagePlan plan;
  plan.add(kTimeZero + minutes(10), minutes(5));
  server_.set_outage_plan(plan);
  sim_.run_until(kTimeZero + minutes(20));
  // Service is back, but the session died with the outage.
  EXPECT_FALSE(server_.online("alice"));
  // The client still *believes* it is logged in until it checks.
  Status verify;
  alice->verify_connection([&](Status s) { verify = std::move(s); });
  sim_.run_for(seconds(10));
  EXPECT_FALSE(verify.ok());
  EXPECT_FALSE(alice->is_logged_in());
  // Re-login works after recovery.
  login(*alice);
  EXPECT_TRUE(server_.online("alice"));
}

TEST_F(ImTest, StaleSessionSendRejected) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  server_.force_logout("alice");
  // Race: alice sends before processing the logout notice. The server
  // must reject the stale epoch.
  Status send_result;
  alice->send_im("bob", "stale", {}, [&](Status s) { send_result = s; });
  sim_.run_for(seconds(10));
  EXPECT_FALSE(send_result.ok());
  EXPECT_FALSE(alice->is_logged_in());
}

TEST_F(ImTest, HungClientDropsIncomingMessages) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  bob->force_hang();
  alice->send_im("bob", "are you there?", {}, nullptr);
  sim_.run_for(seconds(10));
  EXPECT_GE(bob->stats().get("messages_dropped_while_hung"), 1);
  bob->kill();
  bob->launch();
  EXPECT_TRUE(bob->fetch_unread().empty());
}

TEST_F(ImTest, KilledClientFailsPendingRpcs) {
  auto alice = make_client("alice");
  Status result;
  bool called = false;
  alice->login([&](Status s) {
    result = std::move(s);
    called = true;
  });
  alice->kill();  // before the reply arrives
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error().find("terminated"), std::string::npos);
}

TEST_F(ImTest, ReloginReplacesSession) {
  auto alice = make_client("alice");
  login(*alice);
  login(*alice);  // second login: new epoch, server keeps one session
  EXPECT_TRUE(server_.online("alice"));
  EXPECT_EQ(server_.stats().get("logins"), 2);
}

TEST_F(ImTest, LogoutClearsPresence) {
  auto alice = make_client("alice");
  login(*alice);
  alice->logout();
  sim_.run_for(seconds(5));
  EXPECT_FALSE(server_.online("alice"));
  EXPECT_FALSE(alice->is_logged_in());
}

TEST_F(ImTest, VerifyConnectionHealthyPath) {
  auto alice = make_client("alice");
  login(*alice);
  Status verify = Status::failure("pending");
  alice->verify_connection([&](Status s) { verify = std::move(s); });
  sim_.run_for(seconds(10));
  EXPECT_TRUE(verify.ok()) << verify.error();
}

TEST_F(ImTest, SequenceNumbersIncrease) {
  auto alice = make_client("alice");
  auto bob = make_client("bob");
  login(*alice);
  login(*bob);
  alice->send_im("bob", "one", {}, nullptr);
  alice->send_im("bob", "two", {}, nullptr);
  sim_.run_for(seconds(10));
  auto unread = bob->fetch_unread();
  ASSERT_EQ(unread.size(), 2u);
  EXPECT_NE(unread[0].seq, unread[1].seq);
}

}  // namespace
}  // namespace simba::im
