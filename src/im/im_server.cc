#include "im/im_server.h"

#include <utility>
#include <variant>

#include "util/log.h"

namespace simba::im {

ImServer::ImServer(sim::Simulator& sim, net::MessageBus& bus,
                   std::string address)
    : sim_(sim),
      bus_(bus),
      address_(std::move(address)),
      rng_(sim.make_rng("im.server." + address_)) {
  bus_.attach(address_, [this](const net::Message& m) { handle(m); });
}

void ImServer::register_account(const std::string& user) {
  accounts_.insert(user);
}

bool ImServer::has_account(const std::string& user) const {
  return accounts_.contains(user);
}

bool ImServer::online(const std::string& user) const {
  return sessions_.count(user) > 0;
}

void ImServer::set_outage_plan(sim::OutagePlan plan) {
  outages_ = std::move(plan);
  // Sessions die the moment an outage begins, whether or not traffic
  // flows during it: after recovery everyone must re-login.
  for (const auto& o : outages_.outages()) {
    if (o.start < sim_.now()) continue;
    sim_.at(o.start, [this] { drop_all_sessions(); }, "im.outage_begin");
  }
}

bool ImServer::down() const { return outages_.down_at(sim_.now()); }

void ImServer::force_logout(const std::string& user) {
  const auto it = sessions_.find(user);
  if (it == sessions_.end()) return;
  const std::string client = it->second.client_address;
  if (it->second.reset_event != 0) sim_.cancel(it->second.reset_event);
  sessions_.erase(it);
  stats_.bump("forced_logouts");
  SIMBA_LOG_DEBUG("im.server", "forced logout of " + user);
  net::Message note;
  note.from = address_;
  note.to = client;
  note.payload = net::ImLoggedOut{user};
  bus_.send(std::move(note));
}

void ImServer::drop_all_sessions() {
  if (sessions_.empty()) return;
  stats_.bump("session_drops", static_cast<std::int64_t>(sessions_.size()));
  for (const auto& [user, session] : sessions_.sorted_items()) {
    if (session.reset_event != 0) sim_.cancel(session.reset_event);
  }
  sessions_.clear();
  log_debug("im.server", "all sessions dropped (outage begin)");
}

void ImServer::arm_session_reset(const std::string& user) {
  if (session_reset_mtbf_ <= Duration::zero()) return;
  auto it = sessions_.find(user);
  if (it == sessions_.end()) return;
  it->second.reset_event = sim_.after(
      rng_.exponential_duration(session_reset_mtbf_),
      [this, user] { force_logout(user); }, "im.session_reset");
}

void ImServer::reply(const net::Message& to_msg, net::Payload payload) {
  net::Message m;
  m.from = address_;
  m.to = to_msg.from;
  m.payload = std::move(payload);
  m.in_reply_to = to_msg.id;
  bus_.send(std::move(m));
}

void ImServer::handle(const net::Message& m) {
  if (down()) {
    // Silent: the service is unreachable; clients see timeouts.
    stats_.bump("ignored_while_down");
    return;
  }
  std::visit([this, &m](const auto& payload) { on(m, payload); }, m.payload);
}

void ImServer::on(const net::Message&, const net::ImLogout& logout) {
  const auto it = sessions_.find(logout.user);
  if (it != sessions_.end()) {
    if (it->second.reset_event != 0) sim_.cancel(it->second.reset_event);
    sessions_.erase(it);
  }
  stats_.bump("logouts");
}

void ImServer::on(const net::Message& m, const net::ImPing& ping) {
  const auto it = sessions_.find(ping.user);
  const bool valid = it != sessions_.end() && it->second.epoch == ping.epoch;
  reply(m, net::ImPong{valid});
  stats_.bump("pings");
}

void ImServer::on(const net::Message& m, const net::ImLogin& login) {
  const std::string& user = login.user;
  if (!has_account(user)) {
    reply(m, net::ImLoginErr{"no such account"});
    stats_.bump("login_rejected");
    return;
  }
  Session session;
  session.epoch = next_epoch_++;
  session.client_address = m.from;
  // Re-login replaces any existing session.
  const auto it = sessions_.find(user);
  if (it != sessions_.end() && it->second.reset_event != 0) {
    sim_.cancel(it->second.reset_event);
  }
  sessions_[user] = session;
  stats_.bump("logins");
  reply(m, net::ImLoginOk{session.epoch});
  arm_session_reset(user);
}

void ImServer::on(const net::Message& m, const net::ImSend& send) {
  const auto sender = sessions_.find(send.from_user);
  if (sender == sessions_.end() || sender->second.epoch != send.epoch) {
    reply(m, net::ImSendErr{"not logged in", send.seq});
    stats_.bump("send_rejected.no_session");
    return;
  }
  const auto recipient = sessions_.find(send.to_user);
  if (recipient == sessions_.end()) {
    reply(m, net::ImSendErr{"recipient offline", send.seq});
    stats_.bump("send_rejected.offline");
    return;
  }
  net::Message out;
  out.from = address_;
  out.to = recipient->second.client_address;
  out.payload =
      net::ImDeliver{send.from_user, send.to_user, send.seq, send.simba};
  out.body = m.body;
  bus_.send(std::move(out));
  reply(m, net::ImSendOk{send.seq});
  stats_.bump("sends");
}

}  // namespace simba::im
