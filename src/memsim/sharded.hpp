#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "memsim/system.hpp"

/// Sharded per-channel parallel replay.
///
/// The controller address hash makes every channel an island: placement,
/// bank timing, the outstanding window and all per-request statistics
/// are channel-local, and the serial engines already accumulate their
/// statistics in per-channel lanes merged in channel order (see
/// ReplaySlice). Sharding exploits that: partition the incoming stream
/// by serving channel, run one full replay pipeline per channel lane on
/// a small worker pool, and merge the lanes' finish_slice() results in
/// channel order — the exact reduction the serial path performs, so the
/// result is bit-identical to a serial run for any thread count. That
/// bit-identity is a hard test gate (tests/test_sharded.cpp), not a
/// best-effort property.
///
/// Who shards: sched::ScheduledSystem (always through per-channel
/// ControllerLanes; run_threads <= 1 feeds them inline) and
/// hybrid::TieredSystem (both tier replays behind one pool). Flat
/// direct replay does not: a MemorySystem is always one serial
/// ReplaySession, because a request costs too little there for the
/// routing and block hand-off to pay — measured on a 4-thread host,
/// 4 workers ran flat COMET at 0.87-1.14x serial, and inline lanes cost
/// 35-43% more than one session.
///
/// Threading model: the caller's thread is the producer — it pulls the
/// source in blocks (sources are single-pass and stay single-threaded),
/// routes each request to its lane, and hands ~kFeedBlockRequests-sized
/// blocks to the lane's worker over a bounded queue. Lanes map to
/// workers round-robin (lane % workers); each lane is only ever touched
/// by one worker, so lanes need no locking of their own. With
/// threads <= 1 the pool degenerates to inline feeding on the caller's
/// thread — zero threading overhead, same code path as the tests'
/// reference runs.
namespace comet::prof {
class Profiler;
struct PoolProfile;
}

namespace comet::memsim {

/// Resolves a --run-threads request: 0 means one thread per hardware
/// thread (at least 1), any positive value is taken as-is. Throws
/// std::invalid_argument on negative values.
int resolve_run_threads(int requested);

/// One shard lane: a full replay pipeline (session, or a scheduler
/// front-end over one) that consumes exactly one channel's subsequence
/// of the run's stream. feed() is called in stream order by the lane's
/// single worker; finish_slice() is called once, after every feed, from
/// the merging thread.
class ShardLane {
 public:
  virtual ~ShardLane() = default;
  virtual void feed(const Request& request) = 0;
  virtual ReplaySlice finish_slice() = 0;
};

/// Plain ReplaySession lane — the shard unit of an unscheduled tier
/// replay (hybrid::TieredSystem). The optional telemetry recorder is
/// shared by every lane of a stage: each lane only writes the recorder
/// lane of the channel it serves, so the sharing is race-free and the
/// recorded telemetry is byte-identical to a serial session's (see
/// telemetry.hpp).
class SessionLane final : public ShardLane {
 public:
  SessionLane(const MemorySystem& system, std::string workload_name,
              telemetry::Recorder* telemetry = nullptr)
      : session_(system, std::move(workload_name), telemetry) {}

  void feed(const Request& request) override { session_.feed(request); }
  ReplaySlice finish_slice() override { return session_.finish_slice(); }

 private:
  ReplaySession session_;
};

/// Runs N lanes on up to `threads` worker threads (bounded block queues,
/// block recycling through a free list; see the header comment for the
/// threading model). A lane exception is captured and rethrown on the
/// caller's thread — from feed() as soon as it is noticed, else from
/// finish(); the lowest-numbered worker's error wins when several fail.
class LanePool {
 public:
  /// Takes ownership of the lanes. threads <= 1 selects inline mode.
  /// A non-null `profile` collects host-side wall-clock counters (lane
  /// busy time, queue stalls, block recycling); the pool sizes its lane
  /// and worker vectors before any worker spawns, and publishes every
  /// counter by the time finish() returns. Null costs one pointer test
  /// per block; the simulated results are bit-identical either way.
  LanePool(std::vector<std::unique_ptr<ShardLane>> lanes, int threads,
           prof::PoolProfile* profile = nullptr);
  ~LanePool();

  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  /// Routes one request to `lane` (producer thread only).
  void feed(std::size_t lane, const Request& request);

  /// Flushes, joins the workers and returns every lane's slice in lane
  /// order. May be called once.
  std::vector<ReplaySlice> finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Shared driver for sharded engines: pumps `source` (memsim::pump)
/// through one lane per device channel (routing by the same
/// place_request hash the replay uses), enforcing the global
/// sorted-by-arrival contract with serial-identical diagnostics, then
/// merges the slices in channel order and finalizes against `system`'s
/// model.
/// A non-null `profiler` receives a pool profile plus "source_pull" /
/// "engine_feed" / "shard_merge" stage timings and live progress ticks.
SimStats run_sharded(const MemorySystem& system,
                     std::vector<std::unique_ptr<ShardLane>> lanes,
                     int threads, RequestSource& source,
                     prof::Profiler* profiler = nullptr);

}  // namespace comet::memsim
