#include "xml/xml.h"

#include <cctype>

#include "util/strings.h"

namespace simba::xml {

// ---------------------------------------------------------------------------
// Element
// ---------------------------------------------------------------------------

std::optional<std::string> Element::attr(std::string_view name) const {
  for (const auto& [k, v] : attrs_) {
    if (k == name) return v;
  }
  return std::nullopt;
}

std::string Element::attr_or(std::string_view name, std::string fallback) const {
  auto v = attr(name);
  return v ? *v : std::move(fallback);
}

void Element::set_attr(std::string name, std::string value) {
  for (auto& [k, v] : attrs_) {
    if (k == name) {
      v = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(std::move(name), std::move(value));
}

Element& Element::add_child(std::string name) {
  children_.push_back(std::make_unique<Element>(std::move(name)));
  return *children_.back();
}

const Element* Element::child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

Element* Element::child(std::string_view name) {
  return const_cast<Element*>(std::as_const(*this).child(name));
}

std::vector<const Element*> Element::children(std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_) {
    if (c->name() == name) out.push_back(c.get());
  }
  return out;
}

std::string Element::child_text(std::string_view name,
                                std::string fallback) const {
  const Element* c = child(name);
  return c ? c->text() : std::move(fallback);
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

void Element::serialize_into(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  auto pad = [&](int d) {
    if (pretty) out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  pad(depth);
  out += '<';
  out += name_;
  for (const auto& [k, v] : attrs_) {
    out += ' ';
    out += k;
    out += "=\"";
    out += escape(v);
    out += '"';
  }
  if (text_.empty() && children_.empty()) {
    out += "/>";
    if (pretty) out += '\n';
    return;
  }
  out += '>';
  if (!text_.empty()) {
    out += escape(text_);
  }
  if (!children_.empty()) {
    if (pretty) out += '\n';
    for (const auto& c : children_) c->serialize_into(out, indent, depth + 1);
    pad(depth);
  }
  out += "</";
  out += name_;
  out += '>';
  if (pretty) out += '\n';
}

std::string Element::serialize(int indent) const {
  std::string out;
  serialize_into(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<Document> run() {
    skip_prolog();
    if (at_end()) return fail("document has no root element");
    auto root = parse_element();
    if (!root.ok()) return Error{root.error()};
    skip_whitespace_and_comments();
    if (!at_end()) return fail("trailing content after root element");
    return Document{std::move(root).take()};
  }

 private:
  bool at_end() const { return pos_ >= input_.size(); }
  char peek() const { return input_[pos_]; }
  bool has(std::size_t n) const { return pos_ + n <= input_.size(); }
  bool starts_with(std::string_view s) const {
    return input_.substr(pos_).substr(0, s.size()) == s;
  }

  void advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }
  void advance_by(std::size_t n) {
    for (std::size_t i = 0; i < n && !at_end(); ++i) advance();
  }

  Error fail(const std::string& message) const {
    return make_error(strformat("XML parse error at %zu:%zu: %s", line_, col_,
                                message.c_str()));
  }

  void skip_whitespace() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) {
      advance();
    }
  }

  // Returns false (and records error_) on malformed comment.
  bool skip_comment() {
    // assumes starts_with("<!--")
    advance_by(4);
    while (!at_end()) {
      if (starts_with("-->")) {
        advance_by(3);
        return true;
      }
      advance();
    }
    return false;
  }

  void skip_whitespace_and_comments() {
    while (true) {
      skip_whitespace();
      if (starts_with("<!--")) {
        if (!skip_comment()) return;  // unterminated; caller errors later
        continue;
      }
      return;
    }
  }

  void skip_prolog() {
    skip_whitespace();
    // <?xml ... ?> declaration (and any other PI), plus comments/DOCTYPE.
    while (!at_end()) {
      if (starts_with("<?")) {
        while (!at_end() && !starts_with("?>")) advance();
        advance_by(2);
      } else if (starts_with("<!--")) {
        if (!skip_comment()) return;
      } else if (starts_with("<!DOCTYPE")) {
        while (!at_end() && peek() != '>') advance();
        if (!at_end()) advance();
      } else {
        return;
      }
      skip_whitespace();
    }
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  Result<std::string> parse_name() {
    std::string name;
    while (!at_end() && is_name_char(peek())) {
      name += peek();
      advance();
    }
    if (name.empty()) return fail("expected a name");
    return name;
  }

  Result<std::string> decode_entities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      const std::size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return fail("unterminated entity reference");
      }
      const std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "amp") out += '&';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else if (!entity.empty() && entity[0] == '#') {
        const bool hex =
            entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
        const auto code = parse_number<unsigned long>(
            entity.substr(hex ? 2 : 1), hex ? 16 : 10);
        if (!code) {
          return fail("bad numeric entity &" + std::string(entity) + ";");
        }
        // Encode code point as UTF-8.
        const unsigned long cp = *code;
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xC0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
          out += static_cast<char>(0xE0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (cp >> 18));
          out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        }
      } else {
        return fail("unknown entity &" + std::string(entity) + ";");
      }
      i = semi;
    }
    return out;
  }

  Result<std::string> parse_attr_value() {
    if (at_end() || (peek() != '"' && peek() != '\'')) {
      return fail("expected quoted attribute value");
    }
    const char quote = peek();
    advance();
    const std::size_t start = pos_;
    while (!at_end() && peek() != quote && peek() != '<') advance();
    if (at_end() || peek() != quote) {
      return fail("unterminated attribute value");
    }
    auto decoded = decode_entities(input_.substr(start, pos_ - start));
    advance();  // closing quote
    return decoded;
  }

  Result<std::unique_ptr<Element>> parse_element() {
    if (at_end() || peek() != '<') return fail("expected '<'");
    advance();
    auto name = parse_name();
    if (!name.ok()) return Error{name.error()};
    auto element = std::make_unique<Element>(name.value());

    // Attributes.
    while (true) {
      skip_whitespace();
      if (at_end()) return fail("unterminated start tag <" + name.value());
      if (peek() == '>' || starts_with("/>")) break;
      auto attr_name = parse_name();
      if (!attr_name.ok()) return Error{attr_name.error()};
      skip_whitespace();
      if (at_end() || peek() != '=') {
        return fail("expected '=' after attribute " + attr_name.value());
      }
      advance();
      skip_whitespace();
      auto attr_value = parse_attr_value();
      if (!attr_value.ok()) return Error{attr_value.error()};
      if (element->attr(attr_name.value())) {
        return fail("duplicate attribute " + attr_name.value());
      }
      element->set_attr(attr_name.value(), attr_value.value());
    }

    if (starts_with("/>")) {
      advance_by(2);
      return element;
    }
    advance();  // '>'

    // Content: text, children, comments, until matching close tag.
    std::string text;
    while (true) {
      if (at_end()) {
        return fail("unterminated element <" + name.value() + ">");
      }
      if (starts_with("<!--")) {
        if (!skip_comment()) return fail("unterminated comment");
        continue;
      }
      if (starts_with("</")) {
        advance_by(2);
        auto close = parse_name();
        if (!close.ok()) return Error{close.error()};
        if (close.value() != name.value()) {
          return fail("mismatched close tag </" + close.value() +
                      "> for <" + name.value() + ">");
        }
        skip_whitespace();
        if (at_end() || peek() != '>') return fail("expected '>'");
        advance();
        auto decoded = decode_entities(text);
        if (!decoded.ok()) return Error{decoded.error()};
        // Trim pure-formatting whitespace around the text content.
        element->set_text(std::string(trim(decoded.value())));
        return element;
      }
      if (peek() == '<') {
        auto kid = parse_element();
        if (!kid.ok()) return Error{kid.error()};
        element->children_mutable().push_back(std::move(kid).take());
        continue;
      }
      text += peek();
      advance();
    }
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
};

}  // namespace

Result<Document> parse(std::string_view input) { return Parser(input).run(); }

}  // namespace simba::xml
