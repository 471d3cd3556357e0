#pragma once

#include <cstdint>
#include <variant>

namespace comet::util {

/// One row of a metric table: a reported number of a V, by key. The JSON
/// writers, the console tables and the CSV export walk a table's rows,
/// so a new reported number is one row. Integer getters print as
/// integers; each surface has one format for double getters. `console`
/// makes the row a console-table column headed by its key.
template <typename V>
struct Metric {
  const char* key;
  std::variant<std::uint64_t (*)(const V&), double (*)(const V&)> get;
  bool console = false;

  double value(const V& v) const {
    return std::visit([&](auto f) { return static_cast<double>(f(v)); }, get);
  }
};

/// The `console` flag of a row: `{"hit_rate", getter, kConsole}`.
inline constexpr bool kConsole = true;

}  // namespace comet::util
