// ccsched — line helpers shared by the text parsers and writers.
//
// All of the repo's text formats (graph, schedule, SDF, fault spec) are
// line-oriented.  Files arrive from any platform and any editor, so every
// parser strips a UTF-8 byte-order mark from the first line and a trailing
// carriage return from every line before tokenizing — CRLF and BOM'd
// inputs must parse identically to plain LF files, never as mysterious
// "unknown directive" diagnostics on otherwise valid lines.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace ccs {

/// Normalizes one line in place: strips the UTF-8 BOM when `first_line`,
/// and a trailing '\r' always.
inline void normalize_parsed_line(std::string& line, bool first_line) {
  if (first_line && line.size() >= 3 && line[0] == '\xEF' &&
      line[1] == '\xBB' && line[2] == '\xBF')
    line.erase(0, 3);
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

/// Appends the decimal form of `value` to `out` (the digits `os << value`
/// writes, without a stream).
template <std::integral Int>
void append_decimal(std::string& out, Int value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, end);
}

/// The number of characters append_decimal(out, value) appends, so a
/// writer can reserve its exact output size.
template <std::integral Int>
std::size_t decimal_width(Int value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return static_cast<std::size_t>(end - buf);
}

/// `prefix` followed by the decimal form of `value`: numbered("n", 7) is
/// "n7".  Built by appending into the prefix; GCC 12 at -O3 misreports
/// `"n" + std::to_string(v)` as an overlapping memcpy (-Wrestrict, GCC
/// bug 105651), which -Werror turns into a build failure.
template <std::integral Int>
std::string numbered(std::string_view prefix, Int value) {
  std::string out;
  out.reserve(prefix.size() + decimal_width(value));
  out.append(prefix);
  append_decimal(out, value);
  return out;
}

}  // namespace ccs
