#pragma once

#include <string>
#include <vector>

/// SLO health-gate predicates: the `--assert-slo` / `[slo]` grammar.
///
/// An assertion list is a comma-separated conjunction of predicates,
/// each `metric OP threshold`:
///
///   p99_read_ns<=2500,requests_per_s>=5e6,max_slowdown<=3.0
///
/// Metrics name run statistics (simulated latencies/bandwidth, host
/// throughput, fairness); the registry of valid names lives here so
/// that option parsing can reject typos at startup (exit 2), while the
/// driver owns the mapping from name to value — some metrics only
/// apply to hybrid or multi-tenant runs and are skipped elsewhere.
/// Thresholds accept sign, decimals, and scientific notation.
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

/// Parses a comma-separated predicate list. Throws std::invalid_argument
/// naming the offending predicate on any malformed expression, unknown
/// metric, or non-finite threshold. An empty/blank string yields {}.
std::vector<SloPredicate> parse_slo(const std::string& text);

/// Re-serializes a predicate list to the parse_slo grammar
/// (round-trips: parse_slo(slo_to_string(p)) == p).
std::string slo_to_string(const std::vector<SloPredicate>& predicates);

/// True if `name` is a metric the driver can evaluate.
bool known_slo_metric(const std::string& name);

/// All valid metric names (sorted); tests iterate this to keep the
/// registry and the driver's evaluator from drifting apart.
const std::vector<std::string>& known_slo_metrics();

}  // namespace comet::prof
