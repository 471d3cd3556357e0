#pragma once

#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

/// Name tables for enum-valued knobs: one `{name, value}` row per
/// enumerator, so the token <-> value mapping and the "expected ..."
/// diagnostic come from one list.
namespace comet::util {

template <typename T>
struct Named {
  const char* name;
  T value;
};

/// The row of `rows` (any range of rows with a `name`) spelled `name`.
/// Throws std::invalid_argument "unknown <what> '<name>'; expected a,
/// b or c" otherwise.
template <typename Rows>
const auto& find_named(const Rows& rows, std::string_view name,
                       const char* what) {
  std::string expected;
  std::size_t left = std::size(rows);
  for (const auto& row : rows) {
    if (name == row.name) return row;
    expected += row.name;
    expected += --left > 1 ? ", " : left == 1 ? " or " : "";
  }
  throw std::invalid_argument("unknown " + std::string(what) + " '" +
                              std::string(name) + "'; expected " + expected);
}

/// Name of `value` in a Named table (the first row's name when absent).
template <typename Rows, typename T>
const char* name_of(const Rows& rows, const T& value) {
  for (const auto& row : rows) {
    if (row.value == value) return row.name;
  }
  return std::begin(rows)->name;
}

}  // namespace comet::util
