#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

/// JSON literals for the hand-written JSON writers (run reports, Chrome
/// traces, bench records).
namespace comet::util {

/// `s` as a quoted JSON string: `"` and `\` backslash-escaped, control
/// bytes as `\u00XX`, so a path or label holding a tab stays valid JSON.
inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(byte));
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

/// The shortest decimal form of `v` that parses back to exactly `v`.
inline std::string json_number(double v) {
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace comet::util
