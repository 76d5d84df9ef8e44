#ifndef SNOR_UTIL_STRING_UTIL_H_
#define SNOR_UTIL_STRING_UTIL_H_

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace snor {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string StrTrim(std::string_view text);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Lower-cases ASCII letters.
std::string AsciiToLower(std::string_view text);

/// Parses a whole numeric flag value into `*out`: false (and `*out`
/// untouched) when `text` is empty, has trailing characters, is out of
/// range for `T` (a negative value for an unsigned `T` included) or, for
/// floating-point `T`, is not finite. Integer `T` accepts only whole
/// decimal numbers.
template <typename T>
[[nodiscard]] bool ParseFlagValue(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

}  // namespace snor

#endif  // SNOR_UTIL_STRING_UTIL_H_
