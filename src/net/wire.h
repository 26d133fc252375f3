// The typed IM wire protocol (DESIGN.md §17). Every message on the bus
// carries exactly one of these per-kind payloads; integers (epochs,
// sequence numbers, reply ids) stay integers on the wire, so a
// keepalive round trip formats and parses nothing, and a missing or
// garbled field cannot exist — there is no string to look it up in.
//
// Each kind keeps its historical wire name ("im.ping", ...), which
// names the bus delivery event and the bus trace spans.
//
//   client -> server: im.login, im.logout, im.ping, im.send
//   server -> client: im.login.ok, im.login.err, im.pong, im.send.ok,
//                     im.send.err, im.deliver, im.logged_out
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/time.h"

namespace simba::net {

/// What a SIMBA-library IM is: SIMBA layers alerts, application-level
/// acknowledgements and remote commands on top of plain IM. kNone is
/// a plain human IM.
enum class SimbaKind : std::uint8_t { kNone, kAlert, kAck, kCommand };

/// The alert an alert IM carries, apart from its id (SimbaFields) and
/// its text (the message body).
struct AlertFields {
  std::string source;
  std::string category;
  std::string subject;
  bool high_importance = false;
  TimePoint created_at{};
  /// Sorted by key, as the alert's ordered attribute map yields them.
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// The SIMBA fields an IM send (and its delivery) carries. The IM
/// layers copy them from send to deliver without reading them.
struct SimbaFields {
  SimbaKind kind = SimbaKind::kNone;
  /// The sender wants an application-level ack for this alert.
  bool requires_ack = false;
  /// The alert this IM carries (kind alert).
  std::string alert_id;
  /// The alert this IM acknowledges (kind ack).
  std::string ack_for;
  AlertFields alert;

  /// The trace correlation field: the alert this IM belongs to, or ""
  /// for traffic that belongs to none.
  const std::string& trace_id() const {
    return alert_id.empty() ? ack_for : alert_id;
  }
};

struct ImLogin {
  std::string user;
};
struct ImLoginOk {
  std::uint64_t epoch = 0;
};
struct ImLoginErr {
  std::string reason;
};
struct ImLogout {
  std::string user;
};
struct ImPing {
  std::string user;
  std::uint64_t epoch = 0;
};
struct ImPong {
  bool valid = false;
};
struct ImSend {
  std::string from_user;
  std::string to_user;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  SimbaFields simba;
};
struct ImSendOk {
  std::uint64_t seq = 0;
};
struct ImSendErr {
  std::string reason;
  std::uint64_t seq = 0;
};
struct ImDeliver {
  std::string from_user;
  std::string to_user;
  std::uint64_t seq = 0;
  SimbaFields simba;
};
struct ImLoggedOut {
  std::string user;
};

/// One message's typed payload. std::monostate is a bare transport
/// message ("net.raw"): only the body travels.
using Payload =
    std::variant<std::monostate, ImLogin, ImLoginOk, ImLoginErr, ImLogout,
                 ImPing, ImPong, ImSend, ImSendOk, ImSendErr, ImDeliver,
                 ImLoggedOut>;

/// Wire names, indexed by Payload::index().
inline constexpr const char* kKindNames[] = {
    "net.raw",   "im.login", "im.login.ok", "im.login.err",
    "im.logout", "im.ping",  "im.pong",     "im.send",
    "im.send.ok", "im.send.err", "im.deliver", "im.logged_out"};
static_assert(std::size(kKindNames) == std::variant_size_v<Payload>);

/// The wire name of a payload's kind.
inline const char* kind_name(const Payload& payload) {
  return kKindNames[payload.index()];
}

}  // namespace simba::net
