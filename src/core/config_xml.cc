#include "core/config_xml.h"

#include "util/strings.h"
#include "xml/xml.h"

namespace simba::core {

const char* to_string(KeywordLocation location) {
  switch (location) {
    case KeywordLocation::kNativeCategory: return "nativeCategory";
    case KeywordLocation::kSenderName: return "senderName";
    case KeywordLocation::kSubject: return "subject";
    case KeywordLocation::kBody: return "body";
  }
  return "?";
}

Result<KeywordLocation> keyword_location_from_string(const std::string& text) {
  if (iequals(text, "nativeCategory")) return KeywordLocation::kNativeCategory;
  if (iequals(text, "senderName")) return KeywordLocation::kSenderName;
  if (iequals(text, "subject")) return KeywordLocation::kSubject;
  if (iequals(text, "body")) return KeywordLocation::kBody;
  return make_error("unknown keyword location: " + text);
}

namespace {

std::string format_tod(TimeOfDay tod) {
  return strformat("%02d:%02d", tod.hour(), tod.minute());
}

Result<TimeOfDay> parse_tod(const std::string& text) {
  const auto parts = split(text, ':');
  if (parts.size() != 2) return make_error("bad time of day: " + text);
  const auto hour = parse_number<int>(parts[0]);
  const auto minute = parse_number<int>(parts[1]);
  if (!hour || !minute) return make_error("bad time of day: " + text);
  if (*hour < 0 || *hour > 23 || *minute < 0 || *minute > 59) {
    return make_error("time of day out of range: " + text);
  }
  return TimeOfDay::at(*hour, *minute);
}

void append_profile_body(xml::Element& parent, const UserProfile& profile) {
  profile.addresses().append_to(parent);
  for (const auto& name : profile.mode_names()) {
    profile.mode(name)->append_to(parent);
  }
}

Status parse_profile_body(const xml::Element& parent, UserProfile& profile) {
  for (const auto& child : parent.children()) {
    if (child->name() == "addresses") {
      auto book = AddressBook::from_element(*child);
      if (!book.ok()) return Status::failure(book.error());
      profile.addresses() = book.value();
    } else if (child->name() == "deliveryMode") {
      auto mode = DeliveryMode::from_element(*child);
      if (!mode.ok()) return Status::failure(mode.error());
      const Status defined = profile.define_mode(std::move(mode).take());
      if (!defined.ok()) return defined;
    }
  }
  return Status::success();
}

}  // namespace

std::string config_to_xml(const MabConfig& config) {
  xml::Element root("mabConfig");
  root.set_attr("owner", config.profile.user());
  append_profile_body(root, config.profile);

  for (const auto& [user, profile] : config.shared_profiles) {
    xml::Element& shared = root.add_child("profile");
    shared.set_attr("user", user);
    append_profile_body(shared, profile);
  }

  xml::Element& classifier = root.add_child("classifier");
  for (const auto& rule : config.classifier.rules()) {
    xml::Element& r = classifier.add_child("rule");
    r.set_attr("source", rule.source);
    r.set_attr("location", to_string(rule.location));
    if (!rule.unsubscribe_info.empty()) {
      r.set_attr("unsubscribe", rule.unsubscribe_info);
    }
    for (const auto& keyword : rule.keywords) {
      r.add_child("keyword").set_text(keyword);
    }
  }

  xml::Element& categories = root.add_child("categories");
  for (const auto& [keyword, category] : config.categories.mappings()) {
    xml::Element& m = categories.add_child("map");
    m.set_attr("keyword", keyword);
    m.set_attr("category", category);
  }
  for (const auto& category : config.categories.disabled_categories()) {
    categories.add_child("disabled").set_attr("category", category);
  }
  for (const auto& [category, window] : config.categories.windows()) {
    xml::Element& w = categories.add_child("window");
    w.set_attr("category", category);
    w.set_attr("start", format_tod(window.start));
    w.set_attr("end", format_tod(window.end));
  }

  xml::Element& subscriptions = root.add_child("subscriptions");
  for (const auto& sub : config.subscriptions.all()) {
    xml::Element& s = subscriptions.add_child("subscription");
    s.set_attr("category", sub.category);
    s.set_attr("user", sub.user);
    s.set_attr("mode", sub.mode_name);
  }
  return root.serialize();
}

Result<MabConfig> config_from_xml(const std::string& xml_text) {
  auto doc = xml::parse(xml_text);
  if (!doc.ok()) return make_error(doc.error());
  const xml::Element& root = doc.value().root();
  if (root.name() != "mabConfig") {
    return make_error("expected <mabConfig> root, got <" + root.name() + ">");
  }
  MabConfig config;
  config.profile = UserProfile(root.attr_or("owner", ""));
  const Status owner = parse_profile_body(root, config.profile);
  if (!owner.ok()) return make_error(owner.error());

  for (const auto* shared : root.children("profile")) {
    const std::string user = shared->attr_or("user", "");
    if (user.empty()) return make_error("<profile> missing user attribute");
    UserProfile profile(user);
    const Status parsed = parse_profile_body(*shared, profile);
    if (!parsed.ok()) return make_error(parsed.error());
    config.shared_profiles[user] = std::move(profile);
  }

  if (const xml::Element* classifier = root.child("classifier")) {
    for (const auto* r : classifier->children("rule")) {
      SourceRule rule;
      rule.source = r->attr_or("source", "");
      if (rule.source.empty()) return make_error("<rule> missing source");
      auto location = keyword_location_from_string(r->attr_or("location", ""));
      if (!location.ok()) return make_error(location.error());
      rule.location = location.value();
      rule.unsubscribe_info = r->attr_or("unsubscribe", "");
      for (const auto* keyword : r->children("keyword")) {
        rule.keywords.push_back(keyword->text());
      }
      config.classifier.add_rule(std::move(rule));
    }
  }

  if (const xml::Element* categories = root.child("categories")) {
    for (const auto* m : categories->children("map")) {
      const std::string keyword = m->attr_or("keyword", "");
      const std::string category = m->attr_or("category", "");
      if (keyword.empty() || category.empty()) {
        return make_error("<map> needs keyword and category");
      }
      config.categories.map_keyword(keyword, category);
    }
    for (const auto* d : categories->children("disabled")) {
      config.categories.set_category_enabled(d->attr_or("category", ""),
                                             false);
    }
    for (const auto* w : categories->children("window")) {
      auto start = parse_tod(w->attr_or("start", ""));
      if (!start.ok()) return make_error(start.error());
      auto end = parse_tod(w->attr_or("end", ""));
      if (!end.ok()) return make_error(end.error());
      config.categories.set_delivery_window(
          w->attr_or("category", ""), DailyWindow{start.value(), end.value()});
    }
  }

  if (const xml::Element* subscriptions = root.child("subscriptions")) {
    for (const auto* s : subscriptions->children("subscription")) {
      const Status subscribed = config.subscriptions.subscribe(
          s->attr_or("category", ""), s->attr_or("user", ""),
          s->attr_or("mode", ""));
      if (!subscribed.ok()) return make_error(subscribed.error());
    }
  }
  return config;
}

}  // namespace simba::core
