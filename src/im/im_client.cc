#include "im/im_client.h"

#include <utility>
#include <variant>

#include "util/log.h"

namespace simba::im {

ImClientApp::ImClientApp(sim::Simulator& sim, gui::Desktop& desktop,
                         net::MessageBus& bus, std::string server_address,
                         std::string user, gui::FaultProfile profile,
                         ImClientConfig config)
    : gui::ClientApp(sim, desktop, "im_client." + user, std::move(profile)),
      bus_(bus),
      server_address_(std::move(server_address)),
      user_(std::move(user)),
      bus_address_("im.client." + user_),
      config_(config),
      rpc_timeout_label_(name() + ".rpc_timeout") {}

ImClientApp::~ImClientApp() { bus_.detach(bus_address_); }

void ImClientApp::on_launch() {
  logged_in_ = false;
  epoch_ = 0;
  inbox_.clear();
  bus_.attach(bus_address_, [this](const net::Message& m) { handle_bus(m); });
}

void ImClientApp::on_kill() {
  bus_.detach(bus_address_);
  logged_in_ = false;
  // Pending automation calls observe the process's death.
  auto pending = std::move(pending_);
  pending_.clear();
  for (const auto& [id, rpc] : pending.sorted_items()) {
    if (rpc.timeout_event != 0) sim().cancel(rpc.timeout_event);
    if (rpc.done) rpc.done(Status::failure(name() + ": client terminated"));
  }
}

bool ImClientApp::is_logged_in() {
  if (!running()) return false;
  const Status gate = begin_operation("is_logged_in");
  if (!gate.ok()) return false;
  return logged_in_;
}

std::uint64_t ImClientApp::send_rpc(net::Payload payload, std::string body,
                                    std::function<void(Status)> done,
                                    const char* what) {
  net::Message m;
  m.from = bus_address_;
  m.to = server_address_;
  m.payload = std::move(payload);
  m.body = std::move(body);
  const std::uint64_t id = bus_.send(std::move(m));
  PendingRpc rpc;
  rpc.done = std::move(done);
  rpc.what = what;
  // (this, id) fits std::function's inline buffer: arming the timeout
  // allocates nothing.
  rpc.timeout_event = sim().after(
      config_.rpc_timeout, [this, id] { rpc_timed_out(id); },
      rpc_timeout_label_.c_str());
  pending_.emplace(id, std::move(rpc));
  return id;
}

void ImClientApp::rpc_timed_out(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  auto done_cb = std::move(it->second.done);
  const char* what = it->second.what;
  pending_.erase(it);
  stats().bump("rpc_timeouts");
  if (done_cb) {
    done_cb(Status::failure(name() + ": " + what +
                            " timed out (service unreachable?)"));
  }
}

void ImClientApp::complete_rpc(std::uint64_t request_id, Status status) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    // A reply to a request that timed out, was failed by a kill, or
    // was already answered (a duplicated reply).
    stats().bump("rpc_replies.unmatched");
    return;
  }
  if (it->second.timeout_event != 0) sim().cancel(it->second.timeout_event);
  auto done_cb = std::move(it->second.done);
  pending_.erase(it);
  stats().bump("rpc_replies");
  if (done_cb) done_cb(std::move(status));
}

void ImClientApp::login(std::function<void(Status)> done) {
  const Status gate = begin_operation("login");
  if (!gate.ok()) {
    if (done) done(gate);
    return;
  }
  send_rpc(net::ImLogin{user_}, {},
           [this, done = std::move(done)](Status status) {
             if (done) done(std::move(status));
           },
           "login");
}

void ImClientApp::logout() {
  const Status gate = begin_operation("logout");
  if (!gate.ok()) return;
  if (!logged_in_) return;
  net::Message m;
  m.from = bus_address_;
  m.to = server_address_;
  m.payload = net::ImLogout{user_};
  bus_.send(std::move(m));
  logged_in_ = false;
  epoch_ = 0;
}

void ImClientApp::verify_connection(std::function<void(Status)> done) {
  const Status gate = begin_operation("verify_connection");
  if (!gate.ok()) {
    if (done) done(gate);
    return;
  }
  if (!logged_in_) {
    if (done) done(Status::failure(name() + ": not signed in"));
    return;
  }
  // Note: an invalid pong flips logged_in_ (on(ImPong)); a mere RPC
  // timeout does NOT — one lost packet is not evidence of a dropped
  // session, and treating it as one would cause spurious re-logins.
  send_rpc(net::ImPing{user_, epoch_}, {}, std::move(done), "ping");
}

void ImClientApp::send_im(const std::string& to_user, const std::string& body,
                          net::SimbaFields simba,
                          std::function<void(Status)> done) {
  const Status gate = begin_operation("send_im");
  if (!gate.ok()) {
    if (done) done(gate);
    return;
  }
  if (!logged_in_) {
    if (done) done(Status::failure(name() + ": not signed in"));
    return;
  }
  send_rpc(net::ImSend{user_, to_user, epoch_, next_seq_++, std::move(simba)},
           body, std::move(done), "send");
}

std::vector<ImMessage> ImClientApp::fetch_unread() {
  const Status gate = begin_operation("fetch_unread");
  if (!gate.ok()) return {};
  std::vector<ImMessage> out(inbox_.begin(), inbox_.end());
  inbox_.clear();
  return out;
}

void ImClientApp::handle_bus(const net::Message& m) {
  if (state() != gui::ProcessState::kRunning) {
    // A hung process does not pump its message loop.
    stats().bump("messages_dropped_while_hung");
    return;
  }
  std::visit([this, &m](const auto& payload) { on(m, payload); }, m.payload);
}

void ImClientApp::on(const net::Message& m, const net::ImLoginOk& ok) {
  logged_in_ = true;
  epoch_ = ok.epoch;
  complete_rpc(m.in_reply_to, Status::success());
}

void ImClientApp::on(const net::Message& m, const net::ImLoginErr& err) {
  complete_rpc(m.in_reply_to, Status::failure("login rejected: " + err.reason));
}

void ImClientApp::on(const net::Message& m, const net::ImPong& pong) {
  if (!pong.valid) logged_in_ = false;
  complete_rpc(m.in_reply_to, pong.valid ? Status::success()
                                         : Status::failure("session invalid"));
}

void ImClientApp::on(const net::Message& m, const net::ImSendOk&) {
  complete_rpc(m.in_reply_to, Status::success());
}

void ImClientApp::on(const net::Message& m, const net::ImSendErr& err) {
  if (err.reason == "not logged in") logged_in_ = false;
  complete_rpc(m.in_reply_to, Status::failure("send failed: " + err.reason));
}

void ImClientApp::on(const net::Message& m, const net::ImDeliver& deliver) {
  ImMessage im;
  im.from_user = deliver.from_user;
  im.to_user = deliver.to_user;
  im.body = m.body;
  im.seq = deliver.seq;
  im.simba = deliver.simba;
  im.received_at = sim().now();
  inbox_.push_back(std::move(im));
  stats().bump("messages_received");
  // The new-message event can be lost (blocked by a modal dialog or
  // plain dropped); the message stays unread in the window, where
  // self-stabilization sweeps will find it.
  const bool blocked = desktop().any_blocking(name());
  if (!blocked && !rng().chance(config_.event_loss_probability)) {
    if (new_message_event_) new_message_event_();
  } else {
    stats().bump("new_message_events_lost");
  }
}

void ImClientApp::on(const net::Message&, const net::ImLoggedOut&) {
  logged_in_ = false;
  stats().bump("logged_out_notices");
}

}  // namespace simba::im
