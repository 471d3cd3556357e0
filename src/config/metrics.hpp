#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "memsim/stats.hpp"
#include "prof/slo.hpp"
#include "util/metric.hpp"
#include "util/names.hpp"

/// The run record's metric tables: one row (JSON key, getter) per number
/// of a run's JSON record. The report writer prints the rows, the
/// console tables show the `kConsole` rows under their keys, and the
/// SLO gates evaluate them, so a new reported statistic is one row. An
/// SLO metric is the JSON path of a row — `p99_read_latency_ns`,
/// `sched.admit_stalls`, `tenants.max_slowdown`, `host.requests_per_s` —
/// or an alias below.
namespace comet::config {

/// What record rows read: the simulated statistics and the job's host
/// wall time (0 when no profiler timed the job).
struct RunRecord {
  const memsim::SimStats& stats;
  double wall_s = 0.0;
};

using util::kConsole;
using util::Metric;

/// Record rows living in one JSON object: `block` ("" = the record
/// itself) prefixes their SLO names, and `measured` (null = always)
/// tells whether a record measured them. SLO checks on an unmeasured
/// block are skipped, never violated.
struct MetricBlock {
  const char* block;
  bool (*measured)(const RunRecord&);
  std::span<const Metric<RunRecord>> rows;
};

// --- The tables; row order is report order.

namespace rows {

using D = util::RunningStats;
using R = RunRecord;
using S = memsim::SimStats;
using T = memsim::TenantBreakdown;

inline const S& source(const R& r) { return r.stats; }
inline const T& source(const T& t) { return t; }

/// Member or const method M of the stats, and statistic F (mean, p99,
/// ...) of the RunningStats member M.
template <auto M, typename V = R>
constexpr auto stat = [](const V& v) { return std::invoke(M, source(v)); };
template <auto M, auto F, typename V = R>
constexpr auto dist = [](const V& v) { return std::invoke(F, source(v).*M); };

inline constexpr Metric<R> run[] = {
    {"reads", stat<&S::reads>},
    {"writes", stat<&S::writes>},
    {"span_ps", stat<&S::span_ps>},
    {"avg_latency_ns", stat<&S::avg_latency_ns>, kConsole},
    {"avg_read_latency_ns", dist<&S::read_latency_ns, &D::mean>, kConsole},
    {"avg_write_latency_ns", dist<&S::write_latency_ns, &D::mean>, kConsole},
    {"p50_read_latency_ns", dist<&S::read_latency_ns, &D::p50>},
    {"p95_read_latency_ns", dist<&S::read_latency_ns, &D::p95>, kConsole},
    {"p99_read_latency_ns", dist<&S::read_latency_ns, &D::p99>},
    {"p50_write_latency_ns", dist<&S::write_latency_ns, &D::p50>},
    {"p95_write_latency_ns", dist<&S::write_latency_ns, &D::p95>},
    {"p99_write_latency_ns", dist<&S::write_latency_ns, &D::p99>},
    {"avg_queue_delay_ns", dist<&S::queue_delay_ns, &D::mean>, kConsole},
    {"bandwidth_gbps", stat<&S::bandwidth_gbps>, kConsole},
    {"energy_pj_per_bit", stat<&S::epb_pj_per_bit>, kConsole},
    {"dynamic_energy_pj", stat<&S::dynamic_energy_pj>},
    {"background_energy_pj", stat<&S::background_energy_pj>},
};

inline constexpr Metric<R> cache[] = {
    {"cache_hits", stat<&S::cache_hits>},
    {"cache_misses", stat<&S::cache_misses>},
    {"hit_rate", stat<&S::hit_rate>, kConsole},
    {"writebacks", stat<&S::writebacks>, kConsole},
    {"dram_tier_energy_pj", stat<&S::dram_tier_energy_pj>, kConsole},
    {"backend_tier_energy_pj", stat<&S::backend_tier_energy_pj>, kConsole},
};

/// The scheduler breakdown. queue_delay is the wait in the controller
/// queue (arrival to issue), service_latency the time from issue to
/// completion. fcfs issues at arrival, so it reports 0 queue delay and
/// its whole latency as service; a reordering policy moves bank waits
/// into its queue. Runs on a policy axis compare on avg_latency_ns.
inline constexpr Metric<R> sched[] = {
    {"avg_queue_delay_ns", dist<&S::sched_queue_delay_ns, &D::mean>, kConsole},
    {"p95_queue_delay_ns", dist<&S::sched_queue_delay_ns, &D::p95>},
    {"avg_service_latency_ns", dist<&S::service_latency_ns, &D::mean>,
     kConsole},
    {"avg_read_queue_occupancy", dist<&S::read_queue_occupancy, &D::mean>,
     kConsole},
    {"avg_write_queue_occupancy", dist<&S::write_queue_occupancy, &D::mean>,
     kConsole},
    {"max_write_queue_occupancy", dist<&S::write_queue_occupancy, &D::max>},
    {"write_drains", stat<&S::write_drains>, kConsole},
    {"drained_writes", stat<&S::drained_writes>},
    {"drain_stalls", stat<&S::drain_stalls>, kConsole},
    {"admit_stalls", stat<&S::admit_stalls>, kConsole},
};

inline constexpr Metric<R> tenants[] = {
    {"max_slowdown", stat<&S::max_slowdown>, kConsole},
    {"fairness_index", stat<&S::fairness_index>, kConsole},
};

/// Each element of the `tenants.streams` array (not gateable).
inline constexpr Metric<T> stream[] = {
    {"reads", stat<&T::reads, T>, kConsole},
    {"writes", stat<&T::writes, T>, kConsole},
    {"bytes", stat<&T::bytes_transferred, T>},
    {"avg_latency_ns", stat<&T::avg_latency_ns, T>, kConsole},
    {"p50_latency_ns", dist<&T::latency_ns, &D::p50, T>},
    {"p95_latency_ns", dist<&T::latency_ns, &D::p95, T>},
    {"p99_latency_ns", dist<&T::latency_ns, &D::p99, T>, kConsole},
    {"alone_avg_latency_ns", stat<&T::alone_avg_latency_ns, T>, kConsole},
    {"slowdown", stat<&T::slowdown, T>, kConsole},
};

inline std::uint64_t requests(const R& r) {
  return r.stats.reads + r.stats.writes;
}
inline bool hybrid(const R& r) { return r.stats.is_hybrid(); }
inline bool scheduled(const R& r) { return r.stats.is_scheduled(); }
inline bool multi_tenant(const R& r) { return r.stats.is_multi_tenant(); }
/// Whenever a profiler timed the job (--profile, --progress, --assert-slo).
inline bool timed(const R& r) { return r.wall_s > 0.0; }

inline constexpr Metric<R> host[] = {
    {"wall_s", [](const R& r) { return r.wall_s; }, kConsole},
    {"requests", requests},
    {"requests_per_s",
     [](const R& r) { return r.wall_s > 0 ? requests(r) / r.wall_s : 0.0; },
     kConsole},
};

}  // namespace rows

inline constexpr MetricBlock kRunMetrics{"", nullptr, rows::run};
inline constexpr MetricBlock kCacheMetrics{"", rows::hybrid, rows::cache};
inline constexpr MetricBlock kSchedMetrics{"sched", rows::scheduled,
                                           rows::sched};
inline constexpr MetricBlock kTenantMetrics{"tenants", rows::multi_tenant,
                                            rows::tenants};
inline constexpr MetricBlock kHostMetrics{"host", rows::timed, rows::host};
inline constexpr const MetricBlock* kRecordMetrics[] = {
    &kRunMetrics, &kCacheMetrics, &kSchedMetrics, &kTenantMetrics,
    &kHostMetrics};

/// SLO names from before the metric names were the report keys, each
/// with the JSON path it stands for.
inline constexpr util::Named<const char*> kMetricAliases[] = {
    {"avg_read_ns", "avg_read_latency_ns"},
    {"avg_write_ns", "avg_write_latency_ns"},
    {"p50_read_ns", "p50_read_latency_ns"},
    {"p95_read_ns", "p95_read_latency_ns"},
    {"p99_read_ns", "p99_read_latency_ns"},
    {"p50_write_ns", "p50_write_latency_ns"},
    {"p95_write_ns", "p95_write_latency_ns"},
    {"p99_write_ns", "p99_write_latency_ns"},
    {"max_slowdown", "tenants.max_slowdown"},
    {"fairness_index", "tenants.fairness_index"},
    {"wall_s", "host.wall_s"},
    {"requests_per_s", "host.requests_per_s"},
};

/// The SLO name of `row` in `block`: its JSON path, e.g. "sched.x".
std::string metric_path(const MetricBlock& block,
                        const Metric<RunRecord>& row);

/// prof::parse_slo with metric names checked against the tables: the
/// one parser behind both `--assert-slo` and the `[slo]` section.
std::vector<prof::SloPredicate> parse_slo(const std::string& text);

/// One predicate's result against one record.
struct SloOutcome {
  prof::SloPredicate predicate;
  bool applicable = false;  ///< False (check skipped) when the record
                            ///< did not measure the metric's block.
  double value = 0.0;       ///< The metric's report value; 0 if skipped.
  bool pass = true;         ///< True when skipped or when it holds.
};

/// Evaluates every predicate against one record; `wall_s` is the job's
/// host wall time (0 when untimed). Getters are division-guarded: an
/// empty or zero-time run yields zeros, never NaN.
std::vector<SloOutcome> evaluate_slo(
    const std::vector<prof::SloPredicate>& predicates,
    const memsim::SimStats& stats, double wall_s);

/// True when any outcome is an applicable failed predicate.
bool slo_violated(const std::vector<SloOutcome>& outcomes);

}  // namespace comet::config
