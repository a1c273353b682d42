#include "support/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "support/contracts.h"

namespace dr::support {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  std::size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string fmtDouble(double v, int digits) {
  DR_REQUIRE(digits >= 0 && digits <= 17);
  // The widest rendering, -DBL_MAX, has 309 integer digits, a sign, a
  // point and up to 17 fractional digits.
  char buf[336];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::fixed, digits);
  DR_CHECK(ec == std::errc{});
  // Cut at 63 characters, as printf into a 64-byte buffer cuts them, so
  // every rendering stays byte-identical to the printf one.
  return std::string(buf, std::min<std::ptrdiff_t>(end - buf, 63));
}

std::string indent(std::string_view body, int spaces) {
  DR_REQUIRE(spaces >= 0);
  std::string pad(static_cast<std::size_t>(spaces), ' ');
  std::string out;
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t nl = body.find('\n', start);
    std::string_view line = body.substr(
        start, nl == std::string_view::npos ? body.size() - start : nl - start);
    if (!line.empty()) out += pad;
    out += line;
    if (nl == std::string_view::npos) break;
    out += '\n';
    start = nl + 1;
  }
  return out;
}

}  // namespace dr::support
