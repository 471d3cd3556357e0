#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "config/device_spec.hpp"
#include "config/serialize.hpp"
#include "memsim/trace_gen.hpp"

/// The declarative experiment API: one document (or one builder chain)
/// describes a full comet_sim run — devices, workloads, request counts,
/// seeds, channel overrides and trace files — and expands into the
/// sweep matrix without touching C++.
///
/// Document shape (`--config`); every key of every section, with its
/// type, range and unit, is a row of the field tables in
/// config/fields.hpp:
///
///     [experiment]      # name, devices/workloads tokens, sweep axes
///     [[device]]        # inline devices: base + [device.timing] ...
///     [[workload]]      # inline workload profiles
///     [controller]      # policy axis, queue knobs, run_threads axis
///     [telemetry]       # request trace, epoch metrics time-series
///     [profile]         # host profile, live heartbeat
///     [slo]             # assert = "p99_read_ns<=2500" -> exit 3
///     [tenant]          # mapping, then one [tenant.NAME] per stream
///                       # (workload = "<profile>" or trace_file)
///
/// A `[controller]` holding only `run_threads` shards hybrid tier
/// replays without engaging scheduling; flat direct replay stays
/// serial (results are bit-identical for any thread count either way,
/// so the axis measures wall-clock only).
///
/// The matrix expands devices × channels × policies × run_threads ×
/// workloads × requests × seeds in that nesting order, devices ordered
/// tokens-first then inline definitions (same for workloads).
namespace comet::config {

struct ExperimentSpec {
  std::string name = "experiment";

  /// Registry tokens (including `all` / `hybrid-all`), expanded before
  /// the inline `devices` below. The config layer cannot resolve these
  /// itself — the driver's registry does (resolve_experiment).
  std::vector<std::string> device_tokens;
  std::vector<DeviceSpec> devices;  ///< Inline / resolved definitions.

  /// Built-in profile names (including `all`), expanded before the
  /// inline `workloads`.
  std::vector<std::string> workload_names;
  std::vector<memsim::WorkloadProfile> workloads;

  // --- Sweep axes. Single-element vectors reproduce the CLI flags; a
  // --- longer vector multiplies the matrix.
  std::vector<std::uint64_t> requests = {20000};
  std::vector<std::uint64_t> seeds = {42};
  std::vector<int> channels = {0};  ///< 0 keeps each device's topology.

  /// Scheduling-policy axis: empty = legacy direct replay (no
  /// controller stage). Otherwise one matrix cell per policy, every
  /// cell sharing `controller`'s queue depths and drain watermarks.
  std::vector<sched::Policy> policies;
  sched::ControllerConfig controller;

  /// Sharded-replay axis: per-channel replay worker threads per run
  /// (memsim::resolve_run_threads semantics — 0 = one per hardware
  /// thread). Orthogonal to the scheduling axis; results are
  /// bit-identical across values.
  std::vector<int> run_threads = {1};

  /// Observability: request tracing and/or epoch metrics, applied to
  /// every matrix cell (each cell records into its own Collector).
  /// Default-constructed = disabled; never affects the replay results.
  comet::telemetry::TelemetrySpec telemetry;

  /// Host-side observability: run profiling, the live progress
  /// heartbeat and SLO health gates ([profile] / [slo] sections, the
  /// --profile/--progress/--assert-slo flags). Applied to every matrix
  /// cell (each cell profiles into its own Profiler); never affects
  /// the replay results.
  comet::prof::ProfSpec profile;

  /// Multi-tenant front-end: non-empty turns every matrix cell into an
  /// interleaved run of these streams (plus per-tenant run-alone
  /// baselines). The tenant specs then define the demand — workloads
  /// and trace_file must stay empty. List order fixes the 1-based
  /// tenant ids; parse_experiment orders streams by name.
  std::vector<TenantSpec> tenants;
  TenantMapping tenant_mapping = TenantMapping::kPartition;

  std::uint32_t line_bytes = 128;
  std::string trace_file;  ///< Non-empty: replay instead of synthesis.
  double cpu_ghz = 2.0;

  /// Provenance label: the config file path, or "" for CLI/programmatic
  /// specs. Carried into the JSON report's config_file field.
  std::string source;

  /// Throws std::invalid_argument on an inconsistent spec: no devices,
  /// no demand (workloads, trace file or tenants), workloads alongside
  /// a trace file, workloads or a trace file alongside tenants, empty
  /// axes, or an empty inline device.
  void validate() const;
  bool operator==(const ExperimentSpec&) const = default;
};

/// Fluent construction of an ExperimentSpec — the programmatic face of
/// the same API the config files use.
///
///     auto spec = ExperimentBuilder()
///                     .name("ablation")
///                     .device("comet")
///                     .workload("gcc_like")
///                     .channels({4, 8, 16})
///                     .requests({10000})
///                     .build();
class ExperimentBuilder {
 public:
  ExperimentBuilder& name(std::string value);
  ExperimentBuilder& device(std::string token);
  ExperimentBuilder& device(DeviceSpec spec);
  ExperimentBuilder& workload(std::string profile_name);
  ExperimentBuilder& workload(memsim::WorkloadProfile profile);
  ExperimentBuilder& requests(std::vector<std::uint64_t> values);
  ExperimentBuilder& seeds(std::vector<std::uint64_t> values);
  ExperimentBuilder& channels(std::vector<int> values);

  /// Engages the scheduler stage: one matrix cell per policy.
  ExperimentBuilder& schedule(std::vector<sched::Policy> policies);

  /// Queue depths / drain watermarks shared by every policy cell (the
  /// config's own `policy` field is overwritten per cell).
  ExperimentBuilder& controller_config(sched::ControllerConfig config);

  /// Sharded-replay thread axis (0 = hardware threads).
  ExperimentBuilder& run_threads(std::vector<int> values);

  /// Observability spec applied to every cell (see ExperimentSpec).
  ExperimentBuilder& telemetry(comet::telemetry::TelemetrySpec spec);

  /// Host-side observability spec applied to every cell.
  ExperimentBuilder& profile(comet::prof::ProfSpec spec);

  /// Appends one tenant stream (engages the multi-tenant front-end).
  ExperimentBuilder& tenant(TenantSpec spec);
  ExperimentBuilder& tenant_mapping(TenantMapping mapping);
  ExperimentBuilder& line_bytes(std::uint32_t value);
  ExperimentBuilder& trace(std::string path, double cpu_ghz = 2.0);

  /// Clock of trace cycle stamps, for the run's trace file and for
  /// trace tenants alike.
  ExperimentBuilder& cpu_ghz(double value);

  /// Validates and returns the spec (throws std::invalid_argument).
  ExperimentSpec build() const;

 private:
  ExperimentSpec spec_;
};

/// Parses a whole experiment document. `resolver` resolves `base`
/// references inside inline [[device]] tables (registry tokens in the
/// `devices` list are left for resolve_experiment / the driver). Throws
/// toml::ParseError with source:line diagnostics.
ExperimentSpec parse_experiment(const toml::Document& doc,
                                const DeviceResolver& resolver);

ExperimentSpec parse_experiment_file(const std::string& path,
                                     const DeviceResolver& resolver);

/// Serializes a spec as a parse_experiment-compatible document. Inline
/// devices/workloads are written in full; token lists are written
/// symbolically — resolve first (driver::resolve_experiment) for a
/// registry-independent dump.
void write_experiment(std::ostream& os, const ExperimentSpec& spec);

std::string experiment_to_toml(const ExperimentSpec& spec);

}  // namespace comet::config
