#pragma once

#include <cstdint>
#include <vector>

#include "driver/sweep.hpp"

/// Layer probes for the traced run: each one replays a prefix of the
/// workload's own demand stream through one layer's public seam and
/// times it in isolation, so layers that the end-to-end spans cannot
/// separate (the controller inside an engine, the cache filter inside
/// TieredSystem, the merge inside MultiSource, telemetry recording)
/// still get a host-time cell. Where the workload does not engage a
/// layer, the probe uses a documented stand-in configuration (see
/// perfbench/README.md) so every cell is measured on every workload.
namespace perfbench {

struct ProbeResults {
  std::uint64_t requests = 0;  ///< Length of the probe stream.

  double sched_ns_per_req = 0.0;  ///< ScheduledSystem minus MemorySystem.
  double sched_share = 0.0;       ///< Of the scheduled replay's time.

  double hybrid_ns_per_req = 0.0;    ///< Whole TieredSystem replay.
  double cache_ns_per_access = 0.0;  ///< DramCache::access.
  double cache_hit_rate = 0.0;       ///< Hits over accesses.

  double merge_ns_per_req = 0.0;  ///< MultiSource self time.

  double telemetry_ns_per_req = 0.0;  ///< Collector attached minus detached.
  double telemetry_export_s = 0.0;    ///< Chrome trace + timeline CSV.
  double telemetry_dropped_share = 0.0;
};

/// The job the probes draw their stream and configuration from: the
/// first job on the paper's COMET device, else the first job.
const comet::driver::SweepJob& probe_job(
    const std::vector<comet::driver::SweepJob>& jobs);

/// Runs every probe `reps` times on the first `max_requests` requests
/// of probe_job's demand stream and keeps the median timings.
ProbeResults run_probes(const std::vector<comet::driver::SweepJob>& jobs,
                        std::uint64_t max_requests, int reps);

}  // namespace perfbench
