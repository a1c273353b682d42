#pragma once

#include <string>
#include <string_view>
#include <vector>

/// \file strings.h
/// String utilities shared by the frontend, code generator and report
/// printers.

namespace dr::support {

/// Join the elements of `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// True if `s` starts with `prefix`.
bool startsWith(std::string_view s, std::string_view prefix);

/// Fixed-point decimal rendering with `digits` fractional digits, exactly
/// as printf's "%.*f" renders it ("nan", "-inf", "-0.000"), cut at 63
/// characters.
std::string fmtDouble(double v, int digits = 3);

/// Indent every line of `body` by `spaces` spaces.
std::string indent(std::string_view body, int spaces);

}  // namespace dr::support
