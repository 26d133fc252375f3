#include "core/delivery_mode.h"

#include <cmath>

#include "util/strings.h"
#include "xml/xml.h"

namespace simba::core {

DeliveryBlock& DeliveryMode::add_block(Duration timeout) {
  blocks_.push_back(DeliveryBlock{timeout, {}});
  return blocks_.back();
}

void DeliveryMode::append_to(xml::Element& parent) const {
  xml::Element& root = parent.add_child("deliveryMode");
  root.set_attr("name", name_);
  for (const auto& block : blocks_) {
    xml::Element& b = root.add_child("block");
    b.set_attr("timeout",
               std::to_string(block.timeout.count() / 1'000'000) + "s");
    for (const auto& action : block.actions) {
      xml::Element& a = b.add_child("action");
      a.set_attr("address", action.address_name);
      if (action.require_ack) a.set_attr("requireAck", "true");
    }
  }
}

std::string DeliveryMode::to_xml() const {
  xml::Element holder("holder");
  append_to(holder);
  return holder.children()[0]->serialize();
}

Result<DeliveryMode> DeliveryMode::from_xml(const std::string& xml_text) {
  auto doc = xml::parse(xml_text);
  if (!doc.ok()) return make_error(doc.error());
  return from_element(doc.value().root());
}

Result<DeliveryMode> DeliveryMode::from_element(const xml::Element& root) {
  if (root.name() != "deliveryMode") {
    return make_error("expected <deliveryMode> root, got <" + root.name() +
                      ">");
  }
  DeliveryMode mode(root.attr_or("name", ""));
  for (const auto& child : root.children()) {
    if (child->name() != "block") continue;
    Duration timeout = seconds(30);
    const std::string raw_timeout = child->attr_or("timeout", "");
    if (!raw_timeout.empty()) {
      std::string digits = raw_timeout;
      if (!digits.empty() && (digits.back() == 's' || digits.back() == 'S')) {
        digits.pop_back();
      }
      const auto secs = parse_number<double>(digits);
      if (!secs || !std::isfinite(*secs)) {
        return make_error("bad block timeout: " + raw_timeout);
      }
      if (*secs <= 0) return make_error("non-positive block timeout");
      timeout = seconds(*secs);
    }
    DeliveryBlock& block = mode.add_block(timeout);
    for (const auto& action_el : child->children()) {
      if (action_el->name() != "action") continue;
      DeliveryAction action;
      action.address_name = action_el->attr_or("address", "");
      if (action.address_name.empty()) {
        return make_error("<action> missing address attribute");
      }
      action.require_ack =
          iequals(action_el->attr_or("requireAck", "false"), "true");
      block.actions.push_back(std::move(action));
    }
    if (block.actions.empty()) {
      return make_error("<block> with no actions");
    }
  }
  if (mode.empty()) return make_error("<deliveryMode> with no blocks");
  return mode;
}

DeliveryMode DeliveryMode::sample_urgent_mode() {
  DeliveryMode mode("Urgent");
  DeliveryBlock& first = mode.add_block(seconds(45));
  first.actions.push_back(DeliveryAction{"MSN IM", /*require_ack=*/true});
  first.actions.push_back(DeliveryAction{"Cell SMS", /*require_ack=*/false});
  DeliveryBlock& second = mode.add_block(seconds(60));
  second.actions.push_back(DeliveryAction{"Work email", false});
  second.actions.push_back(DeliveryAction{"Home email", false});
  return mode;
}

}  // namespace simba::core
