// Small string helpers shared across modules.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace simba {

std::vector<std::string> split(std::string_view text, char sep);
/// Split on sep, trimming whitespace from each piece and dropping empties.
std::vector<std::string> split_trimmed(std::string_view text, char sep);
std::string_view trim(std::string_view text);
std::string to_lower(std::string_view text);
bool iequals(std::string_view a, std::string_view b);
bool contains(std::string_view haystack, std::string_view needle);
bool icontains(std::string_view haystack, std::string_view needle);
std::string join(const std::vector<std::string>& parts, std::string_view sep);
/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parses all of `text` as a number with std::from_chars: an integer
/// in `base`, or a decimal floating-point value. Empty, garbled,
/// partly numeric, or out-of-range text yields nullopt — input paths
/// parse through this so that no input can throw.
template <typename T>
std::optional<T> parse_number(std::string_view text, int base = 10) {
  T value{};
  const char* const end = text.data() + text.size();
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>) {
    result = std::from_chars(text.data(), end, value);
  } else {
    result = std::from_chars(text.data(), end, value, base);
  }
  if (text.empty() || result.ec != std::errc() || result.ptr != end) {
    return std::nullopt;
  }
  return value;
}

/// Splits an RFC-822-style sender "Display Name <addr@host>" into
/// {display, address}. Without angle brackets the whole string is the
/// address and the display name is empty.
std::pair<std::string, std::string> parse_email_from(std::string_view from);

}  // namespace simba
