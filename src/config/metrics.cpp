#include "config/metrics.hpp"

#include <algorithm>
#include <string_view>

namespace comet::config {
namespace {

struct Found {
  const MetricBlock* block = nullptr;
  const Metric<RunRecord>* row = nullptr;
};

/// The row an SLO metric name (JSON path or alias) denotes, if any.
Found find_metric(std::string_view name) {
  for (const auto& alias : kMetricAliases) {
    if (name == alias.name) name = alias.value;
  }
  for (const MetricBlock* block : kRecordMetrics) {
    for (const Metric<RunRecord>& row : block->rows) {
      if (name == metric_path(*block, row)) return {block, &row};
    }
  }
  return {};
}

}  // namespace

std::string metric_path(const MetricBlock& block,
                        const Metric<RunRecord>& row) {
  return *block.block ? std::string(block.block) + "." + row.key : row.key;
}

std::vector<prof::SloPredicate> parse_slo(const std::string& text) {
  return prof::parse_slo(text, [](std::string_view name) {
    return find_metric(name).row != nullptr;
  });
}

std::vector<SloOutcome> evaluate_slo(
    const std::vector<prof::SloPredicate>& predicates,
    const memsim::SimStats& stats, double wall_s) {
  const RunRecord record{stats, wall_s};
  std::vector<SloOutcome> outcomes;
  for (const prof::SloPredicate& predicate : predicates) {
    SloOutcome outcome{predicate};
    const Found metric = find_metric(predicate.metric);
    outcome.applicable = metric.row && (!metric.block->measured ||
                                        metric.block->measured(record));
    if (outcome.applicable) {
      outcome.value = metric.row->value(record);
      outcome.pass = predicate.holds(outcome.value);
    }
    outcomes.push_back(outcome);
  }
  return outcomes;
}

bool slo_violated(const std::vector<SloOutcome>& outcomes) {
  return std::any_of(outcomes.begin(), outcomes.end(),
                     [](const SloOutcome& outcome) { return !outcome.pass; });
}

}  // namespace comet::config
