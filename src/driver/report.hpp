#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "config/metrics.hpp"
#include "driver/sweep.hpp"
#include "memsim/stats.hpp"

/// Human tables and machine-readable JSON for comet_sim sweep results.
namespace comet::driver {

/// Each job's row label: its device name plus, in parentheses, each of
/// policy, channels, requests and seed that some device of the matrix
/// takes several values of ("COMET-4b (frfcfs)"). Console tables and SLO
/// violation lines name a record by its label and workload.
std::vector<std::string> record_labels(const std::vector<SweepJob>& jobs);

/// The console tables: per-run results, a per-label summary averaged
/// over workloads (Fig. 9, plus mean bandwidth over mean EPB), then the
/// hybrid-tier, scheduler (with a policy column), tenant-stream and
/// tenant-fairness breakdowns of the records that measured them. Each
/// metric column is a `kConsole` row of config/metrics.hpp headed by its
/// JSON key; integers print in full, doubles as %.6g. `csv` switches
/// every table to CSV.
void print_report(std::ostream& os, const std::vector<SweepJob>& jobs,
                  const std::vector<memsim::SimStats>& results, bool csv);

/// "Host profile" tables for the --profile runs: the console rows of
/// the host metrics plus pool utilization and queue pressure, followed
/// by the per-stage wall-time breakdown. Prints nothing when no record
/// was profiled (`profilers` null, or no entry with spec().profiling()).
/// `results` and `profilers` are indexed like `jobs`.
void print_host_profile(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<memsim::SimStats>& results,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers, bool csv);

/// BENCH_fig9.json-style record: `{"bench": "comet_sim_sweep",
/// "results": [{device, workload, channels, requests, seed, ...,
/// experiment, config_file, reads, ..., backend_tier_energy_pj, sched,
/// tenants, ...}, ...]}`. The experiment/config_file pair is the run's
/// config provenance (`"cli"` / `""` for flag-driven runs).
///
/// Every statistic comes from the metric tables of config/metrics.hpp,
/// in row order: the record's own rows, the "hybrid" flag and the
/// cache rows, then the rows of the "sched" object (after the policy
/// and queue-depth provenance; null for unscheduled runs), of the
/// "tenants" object and of each of its "streams" (null for
/// single-stream runs) and of the "host" object. Each key is also the
/// SLO metric of that number, so a new table row is reported and
/// gateable at once. Integers print as integers, doubles with
/// round-trip precision, strings JSON-escaped.
///
/// Telemetry provenance rides along in every record: trace_out /
/// trace_limit / metrics_interval_ns / metrics_csv (null when the
/// corresponding feature is disabled), plus — when `collectors`
/// supplies a Collector for the record — a "telemetry" object (per-
/// stage recorded/dropped counts and the per-bank request heatmap) and
/// the "timeline" array of epoch metrics (null without sampling). A
/// `jq 'del(.results[].telemetry, .results[].timeline, ...)'` therefore
/// diffs a traced run against an untraced one field for field.
/// `collectors`, when given, must be indexed like `jobs` (null entries
/// = telemetry disabled for that job).
///
/// Host observability rides along the same way: a "host" object (whole-
/// job wall time, host throughput, peak RSS, stage timings and LanePool
/// profiles) on records whose job had --profile and a Profiler in
/// `profilers`, and an "slo" object (overall pass plus one check per
/// predicate, skipped checks marked inapplicable) on records with an
/// entry in `slo` — both null otherwise, preserving the jq del() diff
/// contract. `profilers` and `slo`, when given, must be indexed like
/// `jobs` (an empty predicate list in `slo` means "no gating" for that
/// record).
void write_json(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<memsim::SimStats>& results,
    const std::vector<std::unique_ptr<telemetry::Collector>>* collectors =
        nullptr,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers = nullptr,
    const std::vector<std::vector<config::SloOutcome>>* slo = nullptr);

}  // namespace comet::driver
