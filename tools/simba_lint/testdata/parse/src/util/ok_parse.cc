// Fixture: the non-throwing parse and look-alikes stay clean.
#include <charconv>
#include <string>

namespace fixture {

struct Parser {
  int stoi(const std::string&) const { return 0; }
};

int ok(const std::string& text, const Parser& parser) {
  int value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  // std::stoi(text) in a comment does not trip.
  const std::string note = "std::stol(x) in a string literal";
  const int restoi = 1;                          // identifier, not a call
  return value + parser.stoi(note) + restoi;     // member call
}

}  // namespace fixture
