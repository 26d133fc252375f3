// Fixture: throwing std::sto* parses in simulation code.
#include <string>

namespace fixture {

long long bad(const std::string& text) {
  const int a = std::stoi(text);                 // flagged: stoi
  const long b = std::stol(text, nullptr, 16);   // flagged: stol
  const unsigned long long c = std::stoull(text);  // flagged: stoull
  using std::stod;                               // flagged: stod
  const double d = stod(text);                   // reported at the using
  return a + b + static_cast<long long>(c) + static_cast<long long>(d);
}

}  // namespace fixture
