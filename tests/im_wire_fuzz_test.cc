// Seeded fuzz suite for the typed IM wire protocol (DESIGN.md §17):
// random kinds with random field values go straight to the ImServer
// and to ImClientApps over the bus — unknown users, stale and future
// epochs, replies naming unknown or already-finished RPCs, duplicated
// replies, sends to offline users, and traffic to a hung and to a
// killed client — interleaved with real client RPCs and a server
// outage. No exception may escape, and every delivered message must
// land in exactly one counter of the endpoint that received it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gui/client_app.h"
#include "gui/desktop.h"
#include "im/im_client.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "net/wire.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace simba::im {
namespace {

constexpr int kSeeds = 16;
constexpr int kMessagesPerSeed = 500;

// Every counter a delivered message can end in, per receiving end.
constexpr const char* kServerOutcomes[] = {
    "ignored_while_down",       "logins",
    "login_rejected",           "logouts",
    "pings",                    "sends",
    "send_rejected.no_session", "send_rejected.offline",
    "unknown_messages"};
constexpr const char* kClientOutcomes[] = {
    "messages_dropped_while_hung", "rpc_replies", "rpc_replies.unmatched",
    "messages_received",           "logged_out_notices", "unknown_messages"};
constexpr const char* kBusDrops[] = {
    "dropped.loss", "dropped.partition", "dropped.unreachable",
    "dropped.undeliverable", "dropped.chaos_late_loss", "pending.shed"};

template <std::size_t N>
std::int64_t sum(const Counters& counters, const char* const (&names)[N]) {
  std::int64_t total = 0;
  for (const char* name : names) total += counters.get(name);
  return total;
}

class WireFuzzer {
 public:
  explicit WireFuzzer(std::uint64_t seed)
      : sim_(seed), bus_(sim_), server_(sim_, bus_), desktop_(sim_),
        rng_(sim_.make_rng("fuzz")) {
    for (const char* user : {"alice", "bob", "carol"}) {
      server_.register_account(user);
      clients_.push_back(std::make_unique<ImClientApp>(
          sim_, desktop_, bus_, server_.address(), user, gui::FaultProfile{}));
      clients_.back()->launch();
      clients_.back()->login(nullptr);
    }
    bus_.attach("fuzz", [this](const net::Message&) { ++fuzz_received_; });
    sim::OutagePlan outage;
    outage.add(kTimeZero + minutes(1), seconds(20));
    server_.set_outage_plan(std::move(outage));
    sim_.run_for(seconds(5));
  }

  void run() {
    for (int i = 0; i < kMessagesPerSeed; ++i) {
      if (i == kMessagesPerSeed * 2 / 5) clients_[1]->force_hang();  // bob
      if (i == kMessagesPerSeed * 3 / 5) clients_[2]->kill();        // carol
      if (rng_.chance(0.2)) client_operation();
      const std::uint64_t id = bus_.send(random_message());
      last_id_ = id;
      sim_.run_for(millis(rng_.uniform_int(0, 400)));
    }
    sim_.run();  // drain: every RPC completes or times out
  }

  void check_accounting() const {
    const Counters& bus = bus_.stats();
    EXPECT_EQ(bus_.pending(), 0u);
    EXPECT_EQ(bus.get("sent"), bus.get("delivered") + sum(bus, kBusDrops));
    std::int64_t accounted = fuzz_received_ + sum(server_.stats(),
                                                  kServerOutcomes);
    for (const auto& client : clients_) {
      accounted += sum(client->stats(), kClientOutcomes);
    }
    EXPECT_EQ(bus.get("delivered"), accounted);
    // The interesting paths were reached, not just survived.
    EXPECT_GT(server_.stats().get("unknown_messages"), 0);
    EXPECT_GT(server_.stats().get("login_rejected"), 0);
    EXPECT_GT(server_.stats().get("send_rejected.no_session"), 0);
    EXPECT_GT(server_.stats().get("ignored_while_down"), 0);
    EXPECT_GT(clients_[0]->stats().get("rpc_replies.unmatched"), 0);
    EXPECT_GT(clients_[0]->stats().get("unknown_messages"), 0);
    EXPECT_GT(clients_[1]->stats().get("messages_dropped_while_hung"), 0);
    EXPECT_GT(bus.get("dropped.undeliverable"), 0);  // the killed client
    EXPECT_EQ(rpcs_started_, rpcs_finished_);
  }

 private:
  std::string pick(std::initializer_list<const char*> options) {
    const auto n = static_cast<std::int64_t>(options.size());
    return options.begin()[rng_.uniform_int(0, n - 1)];
  }

  std::string user() { return pick({"alice", "bob", "carol", "dave", ""}); }

  // Live and stale session epochs, zero, and far-future ones.
  std::uint64_t epoch() {
    if (rng_.chance(0.1)) return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(rng_.uniform_int(0, 8));
  }

  // Ids of pending, finished, and never-issued requests.
  std::uint64_t reply_id() {
    if (rng_.chance(0.1)) return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(last_id_) + 4));
  }

  net::SimbaFields simba() {
    net::SimbaFields f;
    f.kind = static_cast<net::SimbaKind>(rng_.uniform_int(0, 3));
    f.requires_ack = rng_.chance(0.5);
    if (rng_.chance(0.5)) f.alert_id = "a-" + pick({"1", "2", ""});
    if (rng_.chance(0.3)) f.ack_for = "a-" + pick({"1", "3"});
    f.alert.subject = pick({"", "Sensor ON", "x"});
    f.alert.created_at = kTimeZero + seconds(rng_.uniform_int(-5, 5));
    return f;
  }

  net::Payload payload() {
    switch (rng_.uniform_int(0, 11)) {
      case 0: return std::monostate{};
      case 1: return net::ImLogin{user()};
      case 2: return net::ImLoginOk{epoch()};
      case 3: return net::ImLoginErr{pick({"no such account", ""})};
      case 4: return net::ImLogout{user()};
      case 5: return net::ImPing{user(), epoch()};
      case 6: return net::ImPong{rng_.chance(0.5)};
      case 7: {
        // Offline and unknown recipients included.
        return net::ImSend{user(), user(), epoch(),
                           static_cast<std::uint64_t>(rng_.uniform_int(0, 9)),
                           simba()};
      }
      case 8: return net::ImSendOk{epoch()};
      case 9: return net::ImSendErr{pick({"not logged in", "x", ""}), 1};
      case 10: return net::ImDeliver{user(), user(), 3, simba()};
      default: return net::ImLoggedOut{user()};
    }
  }

  net::Message random_message() {
    net::Message m;
    // Spoofed client senders make the server's replies land on clients
    // that never asked; "im.client.ghost" was never attached.
    m.from = pick({"fuzz", "fuzz", "im.client.alice", "im.client.ghost"});
    m.to = rng_.chance(0.5) ? std::string(server_.address())
                            : pick({"im.client.alice", "im.client.bob",
                                    "im.client.carol"});
    m.payload = payload();
    m.body = pick({"", "hello", "SIMBA REJUVENATE"});
    m.in_reply_to = reply_id();
    if (!m.to.starts_with("im.server") && rng_.chance(0.3)) {
      bus_.send(m);  // a duplicated reply: the copy arrives too
    }
    return m;
  }

  // Real client traffic, so fuzzed replies find pending RPCs to match.
  void client_operation() {
    ImClientApp& client = *clients_[rng_.uniform_int(0, 2)];
    const auto done = [this](Status) { ++rpcs_finished_; };
    ++rpcs_started_;
    switch (rng_.uniform_int(0, 2)) {
      case 0: client.verify_connection(done); break;
      case 1: client.login(done); break;
      default: client.send_im(user(), "hi", simba(), done); break;
    }
  }

  sim::Simulator sim_;
  net::MessageBus bus_;
  ImServer server_;
  gui::Desktop desktop_;
  Rng rng_;
  std::vector<std::unique_ptr<ImClientApp>> clients_;
  std::int64_t fuzz_received_ = 0;
  std::uint64_t last_id_ = 0;
  int rpcs_started_ = 0;
  int rpcs_finished_ = 0;
};

class ImWireFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ImWireFuzzTest, EveryMessageIsAccountedAndNothingThrows) {
  WireFuzzer fuzzer(static_cast<std::uint64_t>(GetParam()));
  EXPECT_NO_THROW(fuzzer.run());
  fuzzer.check_accounting();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImWireFuzzTest,
                         ::testing::Range(1, kSeeds + 1));

}  // namespace
}  // namespace simba::im
