#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "prof/slo.hpp"

/// Host-side run profiling: the wall-clock twin of src/telemetry.
///
/// Telemetry observes *simulated* time — request lifecycles on the
/// device's own clock. This layer observes the *simulator*: how long
/// each replay stage took on the host, how busy the LanePool workers
/// were, where the producer stalled on a full block queue, and how much
/// memory the process touched. None of it ever feeds back into the
/// replay, so simulated statistics are bit-identical with profiling on
/// or off — the same contract the telemetry seam keeps, enforced by the
/// same kind of tests.
///
/// Threading model (mirrors telemetry::Collector): one Profiler per
/// sweep job, created on the driver thread before any worker starts.
/// Stage timings are accumulated under a mutex (a handful of calls per
/// run, never per request); pool profiles are registered on the
/// producer thread before lane workers spawn, their per-lane and
/// per-worker slots are each written by exactly one thread, and the
/// LanePool join publishes them before any read. The only fields read
/// *during* a run are the atomic progress counters the heartbeat polls.
namespace comet::prof {

/// What a run should observe; the [profile] + [slo] config sections and
/// the --profile/--progress/--assert-slo flags both build one of these.
struct ProfSpec {
  /// Record the host profile (stage timers, pool counters, RSS) and
  /// report it as the JSON `host` object and the console table.
  bool profile = false;

  /// Heartbeat interval of the live stderr progress line [ms];
  /// 0 disables the heartbeat.
  std::uint64_t progress_ms = 0;

  /// Health assertions evaluated per record after the run; any
  /// violation makes the driver exit 3. Empty = no gating.
  std::vector<SloPredicate> slo;

  bool profiling() const { return profile; }
  bool heartbeat() const { return progress_ms > 0; }
  bool gating() const { return !slo.empty(); }
  bool enabled() const { return profiling() || heartbeat() || gating(); }
  bool operator==(const ProfSpec&) const = default;
};

/// Accumulated wall time of one named replay stage (source pull, engine
/// feed, shard merge, baseline replays, ...).
struct StageStats {
  std::uint64_t calls = 0;
  double wall_s = 0.0;
};

/// One shard lane's share of a pool's work, written only by the worker
/// that owns the lane (lanes map to workers statically).
struct LaneProfile {
  double busy_s = 0.0;  ///< Wall time inside this lane's feed() calls.
  std::uint64_t blocks = 0;
  std::uint64_t requests = 0;
};

/// One pool worker's time split, written only by that worker thread.
struct WorkerProfile {
  double busy_s = 0.0;       ///< Executing blocks (all of its lanes).
  double idle_s = 0.0;       ///< Blocked on an empty queue.
  std::uint64_t pop_waits = 0;  ///< Times the queue ran dry.
};

/// Wall-clock counters of one LanePool run. Producer-side fields
/// (push_*, queue_high_water, block accounting) are written by the
/// producer thread only; lanes/workers by their owning worker. In
/// inline mode (threads <= 1) only the block accounting is kept —
/// per-request timing on the caller's thread would cost on the hot
/// path, and "worker utilization" has no meaning without workers.
struct PoolProfile {
  std::string stage;   ///< "" for scheduled pools, "tiers" for hybrid.
  int threads = 0;     ///< Worker count; 0 = inline mode.
  double wall_s = 0.0; ///< Pool construction to finish().

  std::vector<LaneProfile> lanes;
  std::vector<WorkerProfile> workers;

  std::uint64_t blocks_pushed = 0;
  std::uint64_t blocks_allocated = 0;  ///< Fresh heap blocks.
  std::uint64_t blocks_recycled = 0;   ///< Served from the free list.
  std::uint64_t push_stalls = 0;  ///< Producer waits on a full queue.
  double push_wait_s = 0.0;
  std::size_t queue_high_water = 0;  ///< Deepest queue ever observed.

  /// Mean worker busy fraction in [0, 1]; 0 for inline pools.
  double utilization() const;
};

/// Per-run (per sweep job) host-profiling root: engines write stage
/// timings and pool profiles through the same nullable seam as
/// telemetry (Engine::attach_profiler), the heartbeat polls the atomic
/// progress counters while the run executes, and the driver reads the
/// aggregate back afterwards.
class Profiler {
 public:
  explicit Profiler(ProfSpec spec);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  const ProfSpec& spec() const { return spec_; }

  /// Adds `wall_s` seconds (over `calls` timed intervals) to the named
  /// stage. Thread-safe; called a handful of times per run, never per
  /// request.
  void record_stage(const std::string& name, double wall_s,
                    std::uint64_t calls = 1);

  /// Registers one LanePool's profile and returns it, owned by the
  /// Profiler; the pool sizes the lane/worker vectors itself before its
  /// workers spawn. Thread-safe; called on the pool's producer thread.
  PoolProfile* add_pool(std::string stage);

  /// Live progress: requests pulled from the source so far, bumped once
  /// per block (not per request) by the replay loops and read by the
  /// heartbeat thread.
  void add_progress(std::uint64_t requests) {
    progress_.fetch_add(requests, std::memory_order_relaxed);
  }
  std::uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Whole-job wall time, set once by the sweep worker when the job
  /// finishes.
  void set_wall_seconds(double wall_s) { wall_s_ = wall_s; }
  double wall_seconds() const { return wall_s_; }

  // --- Read-back (driver thread, after the run joined).
  const std::map<std::string, StageStats>& stages() const { return stages_; }
  const std::vector<std::unique_ptr<PoolProfile>>& pools() const {
    return pools_;
  }

 private:
  ProfSpec spec_;
  std::mutex mutex_;  ///< Guards stages_ and pools_ registration.
  std::map<std::string, StageStats> stages_;
  std::vector<std::unique_ptr<PoolProfile>> pools_;
  std::atomic<std::uint64_t> progress_{0};
  double wall_s_ = 0.0;
};

/// Scoped stage timer: measures construction to destruction (or stop())
/// on the steady clock and records into the profiler. A null profiler
/// makes every operation a no-op, so call sites need no branching.
class StageTimer {
 public:
  StageTimer(Profiler* profiler, const char* stage)
      : profiler_(profiler), stage_(stage) {
    if (profiler_) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() { stop(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Records the elapsed time now (idempotent).
  void stop() {
    if (!profiler_) return;
    const auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_);
    profiler_->record_stage(stage_, elapsed.count());
    profiler_ = nullptr;
  }

 private:
  Profiler* profiler_;
  const char* stage_;
  std::chrono::steady_clock::time_point start_;
};

/// Current and peak resident set size of this process [bytes], read
/// from /proc/self/status (VmRSS / VmHWM); 0 where that is unavailable.
std::uint64_t current_rss_bytes();
std::uint64_t peak_rss_bytes();

}  // namespace comet::prof
