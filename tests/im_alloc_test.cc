// Allocation regression test for the IM keepalive round trip: the
// Sanity-Checking API's verify_connection (ping -> pong over the typed
// wire protocol, DESIGN.md §17) must allocate nothing once warm.
//
// This binary replaces the global operator new/delete with counting
// malloc/free wrappers; no other target links this file.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "gui/client_app.h"
#include "gui/desktop.h"
#include "im/im_client.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/simulator.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace simba::im {
namespace {

TEST(ImAllocTest, KeepaliveRoundTripIsAllocationFree) {
  sim::Simulator sim(7);
  net::MessageBus bus(sim);
  ImServer server(sim, bus);
  server.register_account("u");
  gui::Desktop desktop(sim);
  // A short user name keeps the client's bus address ("im.client.u")
  // inside std::string's small-string buffer: what is measured is the
  // protocol, not the address copies every message makes.
  ImClientApp client(sim, desktop, bus, server.address(), "u",
                     gui::FaultProfile{});
  client.launch();
  bool logged_in = false;
  client.login([&logged_in](Status status) { logged_in = status.ok(); });
  sim.run_for(seconds(5));
  ASSERT_TRUE(logged_in);

  int ok = 0;
  const auto round_trip = [&] {
    client.verify_connection([&ok](Status status) {
      if (status.ok()) ++ok;
    });
    sim.run_for(seconds(1));
  };
  // Warm-up: the bus pool, the pending-RPC map and the counter bags
  // reach their steady-state sizes, and the kernel's timing wheel
  // turns once at its top level (2^32 us, about 71.6 virtual minutes),
  // so every wheel slot a round trip files into has its capacity.
  int warm_up = 0;
  while (sim.now() < kTimeZero + minutes(75)) {
    round_trip();
    ++warm_up;
  }
  ASSERT_EQ(ok, warm_up);

  constexpr int kRoundTrips = 1000;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kRoundTrips; ++i) round_trip();
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(ok, warm_up + kRoundTrips);
  EXPECT_EQ(server.stats().get("pings"), warm_up + kRoundTrips);
  EXPECT_LT(allocations, 100u) << allocations << " allocations over "
                               << kRoundTrips << " round trips";
}

}  // namespace
}  // namespace simba::im
