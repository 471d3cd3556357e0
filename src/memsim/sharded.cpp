#include "memsim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/ring.hpp"

namespace comet::memsim {

namespace {

using ProfClock = std::chrono::steady_clock;

double seconds_since(ProfClock::time_point start) {
  return std::chrono::duration<double>(ProfClock::now() - start).count();
}

}  // namespace

int resolve_run_threads(int requested) {
  if (requested < 0) {
    throw std::invalid_argument(
        "run_threads must be >= 0 (0 = one per hardware thread)");
  }
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

/// Blocks a worker may hold queued before the producer blocks on it:
/// enough to ride out scheduling jitter, small enough that a slow lane
/// backpressures the producer instead of buffering the whole stream.
constexpr std::size_t kMaxQueuedBlocksPerWorker = 4;

}  // namespace

struct LanePool::Impl {
  struct Block {
    std::size_t lane = 0;
    std::vector<Request> requests;
  };

  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable can_push;  ///< Producer waits: queue full.
    std::condition_variable can_pull;  ///< Worker waits: queue empty.
    util::RingQueue<std::unique_ptr<Block>> queue{kMaxQueuedBlocksPerWorker};
    bool done = false;
    bool failed = false;
    std::exception_ptr error;
    /// This worker's profile slot, or null. Written only by this worker
    /// thread; the join in shutdown() publishes it to the reader.
    prof::WorkerProfile* wprof = nullptr;
  };

  std::vector<std::unique_ptr<ShardLane>> lanes;
  /// One block per lane being filled by the producer (worker mode only).
  std::vector<std::unique_ptr<Block>> pending;
  std::vector<std::unique_ptr<Worker>> workers;  ///< Empty = inline mode.
  std::mutex free_mutex;
  std::vector<std::unique_ptr<Block>> free_blocks;
  /// Host profile, or null. Producer-side counters (push_*, block
  /// accounting, high water) are producer-thread-only; each lane/worker
  /// slot belongs to the worker owning that lane (lane % workers).
  prof::PoolProfile* profile = nullptr;
  ProfClock::time_point profile_start;

  Impl(std::vector<std::unique_ptr<ShardLane>> lanes_in, int threads,
       prof::PoolProfile* profile_in)
      : lanes(std::move(lanes_in)), profile(profile_in) {
    if (lanes.empty()) {
      throw std::invalid_argument("LanePool: at least one lane required");
    }
    if (profile) {
      profile->lanes.resize(lanes.size());
      profile->threads = threads <= 1 ? 0 : static_cast<int>(std::min(
                             static_cast<std::size_t>(threads), lanes.size()));
      profile_start = ProfClock::now();
    }
    if (threads <= 1) return;  // Inline mode: feed on the caller's thread.
    const std::size_t worker_count =
        std::min(static_cast<std::size_t>(threads), lanes.size());
    pending.resize(lanes.size());
    workers.reserve(worker_count);
    if (profile) profile->workers.resize(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      workers.push_back(std::make_unique<Worker>());
      if (profile) workers.back()->wprof = &profile->workers[i];
    }
    // Spawn only once every Worker is at its final address.
    for (auto& worker : workers) {
      Worker& w = *worker;
      w.thread = std::thread([this, &w] { worker_loop(w); });
    }
  }

  ~Impl() { shutdown(); }

  Worker& worker_for(std::size_t lane) {
    return *workers[lane % workers.size()];
  }

  std::unique_ptr<Block> acquire_block(std::size_t lane) {
    std::unique_ptr<Block> block;
    {
      std::lock_guard<std::mutex> lock(free_mutex);
      if (!free_blocks.empty()) {
        block = std::move(free_blocks.back());
        free_blocks.pop_back();
      }
    }
    if (profile) {
      if (block) {
        ++profile->blocks_recycled;
      } else {
        ++profile->blocks_allocated;
      }
    }
    if (!block) {
      block = std::make_unique<Block>();
      block->requests.reserve(kFeedBlockRequests);
    }
    block->lane = lane;
    return block;
  }

  void recycle(std::unique_ptr<Block> block) {
    block->requests.clear();  // Keeps the capacity.
    std::lock_guard<std::mutex> lock(free_mutex);
    free_blocks.push_back(std::move(block));
  }

  void worker_loop(Worker& w) {
    for (;;) {
      std::unique_ptr<Block> block;
      bool failed = false;
      {
        std::unique_lock<std::mutex> lock(w.mutex);
        if (w.wprof && !w.done && w.queue.empty()) {
          // Only a wait that actually blocks is counted as idle time —
          // the common full-queue path stays untimed.
          const ProfClock::time_point wait_start = ProfClock::now();
          w.can_pull.wait(lock, [&] { return w.done || !w.queue.empty(); });
          ++w.wprof->pop_waits;
          w.wprof->idle_s += seconds_since(wait_start);
        } else {
          w.can_pull.wait(lock, [&] { return w.done || !w.queue.empty(); });
        }
        if (w.queue.empty()) return;  // done, and fully drained.
        block = std::move(w.queue.front());
        w.queue.pop_front();
        failed = w.failed;
      }
      w.can_push.notify_one();
      // After a failure the worker keeps draining (and discarding) its
      // queue so the producer never deadlocks on a full one.
      if (!failed) {
        try {
          ShardLane& lane = *lanes[block->lane];
          if (w.wprof) {
            const ProfClock::time_point feed_start = ProfClock::now();
            for (const Request& req : block->requests) lane.feed(req);
            const double busy = seconds_since(feed_start);
            w.wprof->busy_s += busy;
            prof::LaneProfile& lprof = profile->lanes[block->lane];
            lprof.busy_s += busy;
            ++lprof.blocks;
            lprof.requests += block->requests.size();
          } else {
            for (const Request& req : block->requests) lane.feed(req);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(w.mutex);
          w.failed = true;
          w.error = std::current_exception();
        }
      }
      recycle(std::move(block));
    }
  }

  void push_block(std::unique_ptr<Block> block) {
    Worker& w = worker_for(block->lane);
    {
      std::unique_lock<std::mutex> lock(w.mutex);
      if (profile && w.queue.size() >= kMaxQueuedBlocksPerWorker) {
        // The producer is about to stall on a full queue: the signature
        // of a lane that cannot keep up with the stream.
        const ProfClock::time_point wait_start = ProfClock::now();
        w.can_push.wait(
            lock, [&] { return w.queue.size() < kMaxQueuedBlocksPerWorker; });
        ++profile->push_stalls;
        profile->push_wait_s += seconds_since(wait_start);
      } else {
        w.can_push.wait(
            lock, [&] { return w.queue.size() < kMaxQueuedBlocksPerWorker; });
      }
      if (w.failed) {
        const std::exception_ptr error = w.error;
        lock.unlock();
        shutdown();
        std::rethrow_exception(error);
      }
      w.queue.push_back(std::move(block));
      if (profile) {
        ++profile->blocks_pushed;
        profile->queue_high_water =
            std::max(profile->queue_high_water, w.queue.size());
      }
    }
    w.can_pull.notify_one();
  }

  void feed(std::size_t lane, const Request& req) {
    if (workers.empty()) {
      lanes[lane]->feed(req);
      return;
    }
    auto& slot = pending[lane];
    if (!slot) slot = acquire_block(lane);
    slot->requests.push_back(req);
    if (slot->requests.size() >= kFeedBlockRequests) {
      push_block(std::move(slot));
    }
  }

  /// Signals done and joins. Workers drain their queues first, so after
  /// a clean flush this is a barrier on all fed work. Idempotent.
  void shutdown() {
    for (auto& worker : workers) {
      {
        std::lock_guard<std::mutex> lock(worker->mutex);
        worker->done = true;
      }
      worker->can_pull.notify_one();
    }
    for (auto& worker : workers) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }

  std::vector<ReplaySlice> finish() {
    if (!workers.empty()) {
      for (auto& slot : pending) {
        if (slot && !slot->requests.empty()) push_block(std::move(slot));
      }
      shutdown();
      for (const auto& worker : workers) {
        if (worker->failed) std::rethrow_exception(worker->error);
      }
    }
    if (profile) profile->wall_s = seconds_since(profile_start);
    std::vector<ReplaySlice> slices;
    slices.reserve(lanes.size());
    for (auto& lane : lanes) slices.push_back(lane->finish_slice());
    return slices;
  }
};

LanePool::LanePool(std::vector<std::unique_ptr<ShardLane>> lanes, int threads,
                   prof::PoolProfile* profile)
    : impl_(std::make_unique<Impl>(std::move(lanes), threads, profile)) {}

LanePool::~LanePool() = default;

void LanePool::feed(std::size_t lane, const Request& request) {
  impl_->feed(lane, request);
}

std::vector<ReplaySlice> LanePool::finish() { return impl_->finish(); }

namespace detail {

std::vector<std::unique_ptr<ShardLane>> pool_lanes(
    std::vector<LaneTier>& tiers, std::vector<std::size_t>& offsets) {
  std::vector<std::unique_ptr<ShardLane>> lanes;
  offsets.clear();
  for (LaneTier& tier : tiers) {
    if (tier.lanes.size() !=
        static_cast<std::size_t>(tier.system.model().timing.channels)) {
      throw std::invalid_argument(
          "run_sharded: one lane per channel required");
    }
    offsets.push_back(lanes.size());
    for (auto& lane : tier.lanes) lanes.push_back(std::move(lane));
  }
  offsets.push_back(lanes.size());
  return lanes;
}

std::vector<ReplaySlice> merge_tiers(const std::vector<ReplaySlice>& slices,
                                     const std::vector<std::size_t>& offsets) {
  std::vector<ReplaySlice> merged(offsets.size() - 1);
  for (std::size_t tier = 0; tier + 1 < offsets.size(); ++tier) {
    for (std::size_t i = offsets[tier]; i < offsets[tier + 1]; ++i) {
      merge_slice(merged[tier], slices[i]);
    }
  }
  return merged;
}

}  // namespace detail

}  // namespace comet::memsim
