#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "memsim/pump.hpp"
#include "memsim/system.hpp"
#include "prof/profiler.hpp"

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
/// Who shards: every laned engine goes through run_sharded, with the
/// replay primitives themselves as lanes (ReplaySession and
/// sched::Controller are ShardLanes). sched::ScheduledSystem runs one
/// tier of Controller lanes behind an identity route;
/// hybrid::TieredSystem runs a DRAM tier of session lanes and a backend
/// tier of session or Controller lanes behind its cache filter. Both
/// always replay through the pool (run_threads <= 1 feeds the lanes
/// inline). Flat direct replay does not: a MemorySystem is always one
/// serial ReplaySession, because a request costs too little there for
/// the routing and block hand-off to pay — measured on a 4-thread host,
/// 4 workers ran flat COMET at 0.87-1.14x serial, and inline lanes cost
/// 35-43% more than one session.
///
/// Threading model: the caller's thread is the producer — memsim::pump
/// pulls the source in blocks (sources are single-pass and stay
/// single-threaded) and checks its arrival order, the engine's route
/// turns each demand request into lane requests, and the pool hands
/// ~kFeedBlockRequests-sized blocks to each lane's worker over a bounded
/// queue. Lanes map to workers round-robin (lane % workers); each lane
/// is only ever touched by one worker, so lanes need no locking of
/// their own. With threads <= 1 the pool degenerates to inline feeding
/// on the caller's thread — zero threading overhead, same code path as
/// the tests' reference runs.
namespace comet::memsim {

/// Resolves a --run-threads request: 0 means one thread per hardware
/// thread (at least 1), any positive value is taken as-is. Throws
/// std::invalid_argument on negative values.
int resolve_run_threads(int requested);

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

/// One tier of a sharded run: the device it replays against and one
/// lane per device channel, in channel order.
struct LaneTier {
  const MemorySystem& system;
  std::vector<std::unique_ptr<ShardLane>> lanes;
};

/// The lanes of a tier: `make_lane()` once per channel of `system`.
template <typename MakeLane>
LaneTier make_tier(const MemorySystem& system, MakeLane&& make_lane) {
  LaneTier tier{system, {}};
  for (int c = 0; c < system.model().timing.channels; ++c) {
    tier.lanes.push_back(make_lane());
  }
  return tier;
}

namespace detail {

/// Moves every tier's lanes into one pool-ordered list (tier by tier,
/// channel order within each); `offsets` receives each tier's first
/// pool lane, then the total. Throws std::invalid_argument if a tier's
/// lane count is not its device's channel count.
std::vector<std::unique_ptr<ShardLane>> pool_lanes(
    std::vector<LaneTier>& tiers, std::vector<std::size_t>& offsets);

/// Merges pool-ordered lane slices into one slice per tier.
std::vector<ReplaySlice> merge_tiers(const std::vector<ReplaySlice>& slices,
                                     const std::vector<std::size_t>& offsets);

}  // namespace detail

/// The one laned-replay driver. Pumps `source` (memsim::pump, which
/// owns the global arrival-order check) through `route(request, emit)`,
/// where `emit(tier, request)` feeds `request` to the lane of `tier`
/// serving its channel (the place_request hash the replay uses). Every
/// lane of every tier runs in one LanePool of up to `threads` workers.
/// Returns one slice per tier, its lanes merged in channel order (the
/// serial sessions' own reduction), ready for finalize_slice. The route
/// is a template argument so it inlines, as pump's feed does.
/// A non-null `profiler` receives the pool's profile under `pool_name`,
/// the "source_pull" / "engine_feed" stage timings and live progress
/// ticks of pump, and the "shard_merge" stage (pool join and merge).
template <typename Route>
std::vector<ReplaySlice> run_sharded(std::vector<LaneTier> tiers, int threads,
                                     RequestSource& source,
                                     prof::Profiler* profiler,
                                     const std::string& pool_name,
                                     Route&& route) {
  std::vector<std::size_t> offsets;
  LanePool pool(detail::pool_lanes(tiers, offsets), threads,
                profiler ? profiler->add_pool(pool_name) : nullptr);
  const auto emit = [&](std::size_t tier, const Request& request) {
    const DeviceTiming& timing = tiers[tier].system.model().timing;
    pool.feed(offsets[tier] + static_cast<std::size_t>(
                                  place_request(timing, request).channel),
              request);
  };
  pump(source, profiler,
       [&](const Request& request) { route(request, emit); });
  prof::StageTimer merge_timer(profiler, "shard_merge");
  return detail::merge_tiers(pool.finish(), offsets);
}

}  // namespace comet::memsim
