// Fixture: tests may parse with std::sto* (the rule covers src/ only).
#include <string>

int parse_in_test(const std::string& text) { return std::stoi(text); }
