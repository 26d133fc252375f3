// The alert: a one-way, user-subscribed notification (Section 1:
// "Alerts refer to the delivery of user-subscribed information to the
// user"). Every alert source in the system — information services, web
// store proxies, Aladdin, WISH, the desktop assistant — produces these,
// and SIMBA's job is to deliver them dependably.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/wire.h"
#include "util/flat_map.h"
#include "util/time.h"

namespace simba::core {

struct Alert {
  /// Which service produced it ("yahoo.alerts", "aladdin", "wish", ...).
  std::string source;
  /// The source's own category label, before MyAlertBuddy re-classifies
  /// it ("Stocks", "Sensor ON", "Location", ...). For email-only legacy
  /// sources this keyword may live in the sender name or subject line
  /// instead; the Alert Classifier knows where to look per source.
  std::string native_category;
  std::string subject;
  std::string body;
  bool high_importance = false;
  TimePoint created_at{};
  /// Unique id assigned at creation; flows end-to-end through the
  /// typed IM fields and the email headers so experiments can trace
  /// delivery latency and detect duplicates.
  std::string id;
  /// Ordered: attributes serialise onto the wire in sorted order.
  // simba-lint: ordered
  std::map<std::string, std::string> attributes;
};

using AlertSink = std::function<void(const Alert&)>;

/// Builds the email header map an alert travels with. The snapshot
/// codec serialises it via sorted_items(), so the golden wire bytes
/// match the old ordered map's image.
util::FlatMap<std::string, std::string> alert_headers(const Alert& alert);

/// Reconstructs an alert from wire headers + body (best effort: a
/// missing or unparsable creation time leaves created_at unset).
Alert alert_from_headers(const util::FlatMap<std::string, std::string>& headers,
                         const std::string& body);

/// The typed IM fields an alert travels with (net/wire.h, kind alert).
net::SimbaFields alert_im_fields(const Alert& alert);

/// Reconstructs an alert from an alert IM's fields + body.
Alert alert_from_im(const net::SimbaFields& fields, const std::string& body);

/// The typed IM fields of an application-level ack for `alert_id`.
net::SimbaFields ack_im_fields(const std::string& alert_id);

}  // namespace simba::core
