#pragma once

#include <string>
#include <string_view>
#include <vector>

/// SLO health-gate predicates: the `--assert-slo` / `[slo]` grammar.
///
/// An assertion list is a comma-separated conjunction of predicates,
/// each `metric OP threshold`:
///
///   p99_read_latency_ns<=2500,host.requests_per_s>=5e6
///
/// Metrics name numbers of the run report. This layer owns only the
/// grammar: the caller supplies the set of valid names (the report's
/// metric tables, config/metrics.hpp) so that option parsing rejects
/// typos at startup (exit 2). Thresholds are plain decimals: sign,
/// digits with an optional point, optional exponent — no hex, inf or
/// nan.
namespace comet::prof {

struct SloPredicate {
  enum class Op { kLe, kGe, kLt, kGt, kEq };

  std::string metric;
  Op op = Op::kLe;
  double threshold = 0.0;

  /// True when `value OP threshold` holds.
  bool holds(double value) const;

  /// The predicate back in source form, e.g. "p99_read_ns<=2500".
  std::string to_string() const;
  bool operator==(const SloPredicate&) const = default;
};

/// Parses a comma-separated predicate list, accepting the metric names
/// for which `known_metric` holds. Throws std::invalid_argument naming
/// the offending predicate on any malformed expression, unknown metric,
/// or non-decimal or non-finite threshold. An empty/blank string
/// yields {}.
std::vector<SloPredicate> parse_slo(const std::string& text,
                                    bool (*known_metric)(std::string_view));

/// Re-serializes a predicate list to the parse_slo grammar
/// (round-trips: parse_slo(slo_to_string(p), ...) == p).
std::string slo_to_string(const std::vector<SloPredicate>& predicates);

}  // namespace comet::prof
