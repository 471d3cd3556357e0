#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "memsim/request.hpp"
#include "memsim/source.hpp"
#include "prof/profiler.hpp"

/// The one replay driver loop.
///
/// Every engine drains its RequestSource the same way: pull a block of
/// kFeedBlockRequests through next_batch() (amortizing the virtual
/// dispatch), hand each request to the engine's own per-request step,
/// and — when a profiler is attached — time the pull and the feed as
/// the "source_pull" / "engine_feed" stages and tick the live progress
/// counter once per block. pump() owns exactly that; what a request
/// *does* (feed a session, route to a lane, run the cache filter) stays
/// with the engine, including its arrival-order check and diagnostic.
namespace comet::memsim {

/// Drains `source` into `feed(const Request&)`. The feed is a template
/// argument so the per-request call inlines: no std::function and no
/// virtual call per request on the hot path. A null `profiler` costs
/// one pointer test per block; simulated results never depend on it.
template <typename Feed>
void pump(RequestSource& source, prof::Profiler* profiler, Feed&& feed) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  Request block[kFeedBlockRequests];
  double pull_s = 0.0;
  double feed_s = 0.0;
  std::uint64_t batches = 0;
  for (;;) {
    Clock::time_point t0;
    if (profiler) t0 = Clock::now();
    const std::size_t pulled = source.next_batch(block, kFeedBlockRequests);
    if (pulled == 0) break;
    if (profiler) {
      pull_s += seconds_since(t0);
      ++batches;
      t0 = Clock::now();
    }
    for (std::size_t i = 0; i < pulled; ++i) feed(block[i]);
    if (profiler) {
      feed_s += seconds_since(t0);
      profiler->add_progress(pulled);
    }
  }
  if (profiler && batches > 0) {
    profiler->record_stage("source_pull", pull_s, batches);
    profiler->record_stage("engine_feed", feed_s, batches);
  }
}

}  // namespace comet::memsim
