#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/tenant_spec.hpp"
#include "prof/profiler.hpp"
#include "sched/controller.hpp"
#include "telemetry/telemetry.hpp"

/// comet_sim command-line parsing, separated from main() so the parser is
/// unit-testable (tests/test_driver.cpp) and reusable from scripts.
namespace comet::driver {

struct Options {
  std::string device = "all";    ///< Token or `all` (see registry.hpp).
  std::string workload = "all";  ///< Profile name or `all`.
  int channels = 0;              ///< 0 keeps each device's paper topology.
  std::size_t requests = 20000;  ///< Requests per (device, workload) run.
  int threads = 0;               ///< Sweep workers; 0 = hardware threads.
  int run_threads = 1;           ///< Per-channel replay workers inside
                                 ///< each scheduled or hybrid run (flat
                                 ///< direct replay is always serial);
                                 ///< 0 = hardware threads. Bit-identical
                                 ///< results for any value.
  std::uint64_t seed = 42;       ///< Trace-generator seed.
  std::uint32_t line_bytes = 128;
  std::string json_path;         ///< Non-empty: write machine-readable JSON.
  bool csv = false;              ///< Emit CSV instead of aligned tables.
  bool help = false;             ///< --help was requested.
  bool list_devices = false;     ///< Print device tokens and exit 0.
  bool list_workloads = false;   ///< Print workload names and exit 0.
  bool list_policies = false;    ///< Print scheduler policies and exit 0.

  // --- Declarative experiment API (--config / --device-file /
  // --- --dump-config). A config file defines the whole sweep matrix,
  // --- so it conflicts with every matrix flag above; --device-file adds
  // --- inline device definitions to the CLI-built matrix instead (and
  // --- replaces the default `--device all` unless --device is given
  // --- explicitly). Files are parsed at option-parse time: a bad path
  // --- or a schema error exits 2 with a file:line diagnostic.
  std::string config;            ///< Non-empty: experiment spec file.
  std::vector<std::string> device_files;  ///< Inline [device] spec files.
  std::string dump_config;       ///< Non-empty: write the fully resolved
                                 ///< experiment spec here and exit.
  bool device_given = false;     ///< --device appeared explicitly.
  bool workload_given = false;   ///< --workload appeared explicitly.

  // --- On-disk NVMain trace replay (--trace-file): replaces synthetic
  // --- workloads with a streamed trace file; --workload/--requests/
  // --- --seed are then ignored. The file must be openable at parse
  // --- time, so a bad path exits 2 before any simulation runs.
  std::string trace_file;        ///< Non-empty: replay this trace file.
  double cpu_ghz = 2.0;          ///< Trace cycle -> time conversion clock.
  std::string dump_trace;        ///< Non-empty: write the synthesized
                                 ///< trace here and exit (needs a single
                                 ///< --workload; no simulation runs).

  // --- Hybrid DRAM-cache overrides (apply to hybrid-* devices only).
  // --- Disengaged means "keep each variant's default" — explicit, so a
  // --- 0 can never be conflated with "unset".
  std::optional<std::uint64_t> cache_mb;   ///< Cache tier capacity [MiB].
  std::optional<int> cache_ways;           ///< Cache associativity.
  std::optional<std::string> cache_policy; ///< write-allocate |
                                           ///< write-no-allocate.

  // --- Memory-controller scheduling (--schedule engages the sched::
  // --- Controller front-end; empty = legacy direct replay). The queue
  // --- and watermark flags refine it and are rejected without
  // --- --schedule. Unset depth flags default to 32; unset watermarks
  // --- are derived from the write-queue depth.
  std::string schedule;          ///< fcfs | frfcfs | read-first.
  std::optional<int> read_q;     ///< Read-queue depth (0 = unbounded).
  std::optional<int> write_q;    ///< Write-queue depth (0 = unbounded).
  std::optional<int> drain_high; ///< Write-drain high watermark.
  std::optional<int> drain_low;  ///< Write-drain low watermark.

  // --- Multi-tenant front-end (--tenants engages it; see src/tenant):
  // --- named streams merged into one run with per-tenant fairness
  // --- stats. The tenant specs then define the demand, so --tenants
  // --- conflicts with an explicit --workload and with --trace-file
  // --- (trace tenants use the name=@path form instead). The fairness
  // --- scheduling knobs refine their matching --schedule policy and
  // --- are rejected otherwise (the --drain-* precedent).
  std::string tenants;           ///< "name=workload[:ns[:burst]],..." /
                                 ///< "name=@trace-file"; empty = off.
  std::string tenant_mapping;    ///< partition | interleave ("" = partition).
  std::optional<int> tenant_tokens;   ///< token-budget: refill size.
  std::optional<int> starvation_cap;  ///< frfcfs-cap: pass-over bound.

  // --- Telemetry (--trace-out engages request tracing,
  // --- --metrics-interval the epoch metrics time-series; both apply to
  // --- every matrix cell and never change the replay results). The
  // --- refining flags are rejected without their enabling flag.
  std::string trace_out;         ///< Non-empty: write Chrome trace JSON.
  std::optional<std::uint64_t> trace_limit;  ///< Event cap (0 = unlimited).
  std::optional<std::uint64_t> metrics_interval_ns;  ///< Epoch length.
  std::string metrics_csv;       ///< Non-empty: also dump timeline CSV.

  // --- Host-side observability (src/prof): --profile records stage /
  // --- LanePool wall-clock profiles into each record's JSON `host`
  // --- object, --progress[=ms] runs the live stderr heartbeat, and
  // --- --assert-slo gates the run's health (violation = exit 3). None
  // --- of them changes the replay results.
  bool profile = false;          ///< --profile: record host profiles.
  std::uint64_t progress_ms = 0; ///< --progress heartbeat period; 0 = off.
  std::string assert_slo;        ///< --assert-slo predicate list ("" = off).
};

/// The controller config the --schedule/--read-q/--write-q/--drain-*
/// flags describe, or nullopt without --schedule. Throws
/// std::invalid_argument on queue/watermark flags without --schedule or
/// an inconsistent watermark combination (parse_args calls this, so bad
/// combinations exit 2 before any simulation).
std::optional<sched::ControllerConfig> scheduler_from_options(
    const Options& options);

/// The telemetry spec the --trace-out/--trace-limit/--metrics-interval/
/// --metrics-csv flags describe (disabled when none is given). Throws
/// std::invalid_argument on --trace-limit without --trace-out or
/// --metrics-csv without --metrics-interval (parse_args calls this, so
/// bad combinations exit 2 before any simulation).
telemetry::TelemetrySpec telemetry_from_options(const Options& options);

/// The host-observability spec the --profile/--progress/--assert-slo
/// flags describe (disabled when none is given). Throws
/// std::invalid_argument on a malformed --assert-slo expression or an
/// unknown SLO metric (parse_args calls this, so bad predicates exit 2
/// before any simulation).
prof::ProfSpec prof_from_options(const Options& options);

/// The tenant streams the --tenants list describes (empty without the
/// flag). Entries are `name=workload[:interarrival_ns[:burstiness]]`
/// or `name=@trace-file`, comma-separated; streams are returned in
/// name order — the same deterministic ordering contract as the
/// [tenant] config sections. Throws std::invalid_argument on malformed
/// entries, unknown profiles and duplicate names (parse_args calls
/// this, so bad lists exit 2 before any simulation).
std::vector<config::TenantSpec> tenants_from_options(const Options& options);

/// Parses argv-style arguments (excluding argv[0]). Throws
/// std::invalid_argument on unknown flags, missing values, malformed
/// numbers, unknown `--device` / `--workload` names (validated against
/// the registry and the SPEC-like profile set at parse time), and
/// conflicting flag combinations; config/device files are parsed and
/// schema-checked here too (config::toml::ParseError, a
/// std::runtime_error, carries the file:line diagnostic).
Options parse_args(const std::vector<std::string>& args);

/// The --help text.
std::string usage();

}  // namespace comet::driver
