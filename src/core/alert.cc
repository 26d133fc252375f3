#include "core/alert.h"

#include "util/strings.h"

namespace simba::core {

util::FlatMap<std::string, std::string> alert_headers(const Alert& alert) {
  util::FlatMap<std::string, std::string> h;
  h["alert_id"] = alert.id;
  h["alert_source"] = alert.source;
  h["alert_category"] = alert.native_category;
  h["alert_subject"] = alert.subject;
  h["alert_importance"] = alert.high_importance ? "high" : "normal";
  h["alert_created_us"] =
      std::to_string(alert.created_at.time_since_epoch().count());
  for (const auto& [k, v] : alert.attributes) h["alert_attr_" + k] = v;
  return h;
}

Alert alert_from_headers(const util::FlatMap<std::string, std::string>& headers,
                         const std::string& body) {
  Alert a;
  auto get = [&](const char* key) {
    const auto it = headers.find(key);
    return it == headers.end() ? std::string{} : it->second;
  };
  a.id = get("alert_id");
  a.source = get("alert_source");
  a.native_category = get("alert_category");
  a.subject = get("alert_subject");
  a.high_importance = get("alert_importance") == "high";
  if (const auto created =
          parse_number<Duration::rep>(get("alert_created_us"))) {
    a.created_at = TimePoint{Duration{*created}};
  }
  a.body = body;
  for (const auto& [k, v] : headers) {
    constexpr const char kPrefix[] = "alert_attr_";
    if (k.rfind(kPrefix, 0) == 0) {
      a.attributes[k.substr(sizeof(kPrefix) - 1)] = v;
    }
  }
  return a;
}

net::SimbaFields alert_im_fields(const Alert& alert) {
  net::SimbaFields f;
  f.kind = net::SimbaKind::kAlert;
  f.alert_id = alert.id;
  f.alert.source = alert.source;
  f.alert.category = alert.native_category;
  f.alert.subject = alert.subject;
  f.alert.high_importance = alert.high_importance;
  f.alert.created_at = alert.created_at;
  f.alert.attributes.assign(alert.attributes.begin(), alert.attributes.end());
  return f;
}

Alert alert_from_im(const net::SimbaFields& fields, const std::string& body) {
  Alert a;
  a.id = fields.alert_id;
  a.source = fields.alert.source;
  a.native_category = fields.alert.category;
  a.subject = fields.alert.subject;
  a.high_importance = fields.alert.high_importance;
  a.created_at = fields.alert.created_at;
  a.body = body;
  a.attributes.insert(fields.alert.attributes.begin(),
                      fields.alert.attributes.end());
  return a;
}

net::SimbaFields ack_im_fields(const std::string& alert_id) {
  net::SimbaFields f;
  f.kind = net::SimbaKind::kAck;
  f.ack_for = alert_id;
  return f;
}

}  // namespace simba::core
