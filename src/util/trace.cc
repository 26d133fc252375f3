#include "util/trace.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/strings.h"

namespace simba::util {
namespace {

/// Minimal JSON string escaping: quotes, backslashes, and control
/// characters. Span ids and details are ASCII by construction, but the
/// exporter must never emit an unparseable line.
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Content comparison of two span strings. Equal pointers are equal
/// text; distinct pointers may still hold equal text (literal labels
/// against interned ones, or strings of two merged shards).
int compare_text(const char* a, const char* b) {
  return a == b ? 0 : std::strcmp(a, b);
}

bool canonical_less(const Span& a, const Span& b) {
  if (a.start != b.start) return a.start < b.start;
  if (int c = compare_text(a.alert_id, b.alert_id); c != 0) return c < 0;
  if (int c = compare_text(a.component, b.component); c != 0) return c < 0;
  if (int c = compare_text(a.stage, b.stage); c != 0) return c < 0;
  if (a.end != b.end) return a.end < b.end;
  return compare_text(a.detail, b.detail) < 0;
}

}  // namespace

Trace::Trace(const Trace& other) { merge(other); }

Trace& Trace::operator=(const Trace& other) {
  if (this != &other) *this = Trace(other);
  return *this;
}

void Trace::emit(std::string_view alert_id, const char* component,
                 const char* stage, TimePoint at, std::string_view detail) {
  emit(alert_id, component, stage, at, at, detail);
}

void Trace::emit(std::string_view alert_id, const char* component,
                 const char* stage, TimePoint start, TimePoint end,
                 std::string_view detail) {
  spans_.push_back(
      Span{intern(alert_id), component, stage, start, end, intern(detail)});
}

void Trace::emit_owned(std::string_view alert_id, std::string_view component,
                       std::string_view stage, TimePoint start, TimePoint end,
                       std::string_view detail) {
  spans_.push_back(Span{intern(alert_id), intern(component), intern(stage),
                        start, end, intern(detail)});
}

void Trace::merge(const Trace& other) {
  for (const Span& span : other.spans_) {
    spans_.push_back(Span{intern(span.alert_id), intern(span.component),
                          intern(span.stage), span.start, span.end,
                          intern(span.detail)});
  }
}

void Trace::merge(Trace&& other) {
  for (const Span& span : other.spans_) spans_.push_back(span);
  adopted_.push_back(
      std::make_unique<StringInterner>(std::move(other.strings_)));
  for (auto& strings : other.adopted_) adopted_.push_back(std::move(strings));
  other = Trace();
}

std::string Trace::to_jsonl() const {
  // Sorting pointers leaves the spans where they are.
  std::vector<const Span*> sorted;
  sorted.reserve(spans_.size());
  for (const Span& s : spans_) sorted.push_back(&s);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Span* a, const Span* b) {
                     return canonical_less(*a, *b);
                   });
  std::string out;
  for (const Span* s : sorted) {
    out += strformat(
        "{\"t\":%lld,\"dur\":%lld,\"alert\":\"%s\",\"comp\":\"%s\","
        "\"stage\":\"%s\",\"detail\":\"%s\"}\n",
        static_cast<long long>(s->start.time_since_epoch().count()),
        static_cast<long long>(s->duration().count()),
        json_escape(s->alert_id).c_str(), json_escape(s->component).c_str(),
        json_escape(s->stage).c_str(), json_escape(s->detail).c_str());
  }
  return out;
}

// simba-lint: ordered (report-time only; printed in sorted order)
std::map<std::string, Summary> Trace::stage_latency() const {
  // simba-lint: ordered
  std::map<std::string, Summary> stages;
  for (const Span& s : spans_) {
    stages[std::string(s.component) + "." + s.stage].add(s.duration());
  }
  return stages;
}

// simba-lint: ordered
std::map<std::string, Histogram> Trace::stage_histograms(
    const std::vector<double>& boundaries) const {
  // simba-lint: ordered
  std::map<std::string, Histogram> stages;
  for (const Span& s : spans_) {
    const std::string key = std::string(s.component) + "." + s.stage;
    auto [it, inserted] = stages.try_emplace(key, boundaries);
    it->second.add(s.duration());
  }
  return stages;
}

std::string Trace::stage_report() const {
  std::string out;
  for (const auto& [stage, latency] : stage_latency()) {
    out += strformat("%-28s %s\n", stage.c_str(), latency.report().c_str());
  }
  return out;
}

std::vector<Span> Trace::spans_for(std::string_view alert_id) const {
  std::vector<Span> mine;
  for (const Span& s : spans_) {
    if (std::string_view(s.alert_id) == alert_id) mine.push_back(s);
  }
  std::stable_sort(mine.begin(), mine.end(), canonical_less);
  return mine;
}

std::string Trace::describe(std::string_view alert_id) const {
  std::string out;
  for (const Span& s : spans_for(alert_id)) {
    out += strformat("  [%s +%s] %s.%s", format_time(s.start).c_str(),
                     format_duration(s.duration()).c_str(), s.component,
                     s.stage);
    if (*s.detail != '\0') {
      out += ' ';
      out += s.detail;
    }
    out += "\n";
  }
  if (out.empty()) out = "  (no spans recorded)\n";
  return out;
}

}  // namespace simba::util
