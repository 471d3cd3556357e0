#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "memsim/device.hpp"
#include "memsim/engine.hpp"
#include "memsim/request.hpp"
#include "memsim/stats.hpp"

namespace comet::telemetry {
class Recorder;
}

/// Trace-replay engine (the NVMain-2.0 substitute).
///
/// One generic controller serves every architecture in the study, driven
/// entirely by the DeviceModel descriptor: requests are interleaved over
/// channels by line address, queued FCFS per channel with a bounded
/// outstanding window (the controller's exploitable memory-level
/// parallelism), scheduled onto banks honouring occupancy, row-buffer
/// hits, refresh blocking and photonic region-switch penalties, and
/// charged per-bit dynamic energy plus always-on background power.
///
/// Streaming contract: replay is incremental. MemorySystem::run pumps a
/// RequestSource (memsim::pump) into a ReplaySession one request at a
/// time, which keeps only O(channels x banks) scheduler state —
/// never the trace itself — so arbitrarily long streams (multi-million-
/// request NVMain traces, lazy generator sources) replay in constant
/// memory. The stream must arrive sorted by arrival_ps: memsim::pump
/// verifies monotonicity as it pulls (ReplaySession::feed once more, as
/// its push contract) and throws std::invalid_argument naming the
/// offending (0-based) index and both out-of-order timestamps. Results
/// are bit-identical whether a trace is streamed or materialized first:
/// the vector entry point is a thin VectorSource adapter over the same
/// session.
namespace comet::memsim {

/// Throws the unsorted-stream std::invalid_argument for request
/// `index`, naming both out-of-order timestamps.
[[noreturn]] void throw_unsorted(std::uint64_t index, std::uint64_t prev_ps,
                                 std::uint64_t arrival_ps);

/// The sorted-stream check: request `index` arriving at `arrival_ps`
/// must not precede its predecessor's `prev_ps`. Inline, since
/// memsim::pump runs it on every request of every stream.
inline void check_arrival_order(std::uint64_t index, std::uint64_t prev_ps,
                                std::uint64_t arrival_ps) {
  if (arrival_ps < prev_ps) throw_unsorted(index, prev_ps, arrival_ps);
}

/// Where the controller address hash places one request: the serving
/// channel, the bank within it (the lead bank for striped devices,
/// which occupy every bank of the channel), and the row / photonic
/// region the first line falls into. Single source of truth shared by
/// the replay engine and the sched::Controller front-end, so queue
/// arbitration and bank timing always agree on the mapping.
struct RequestPlacement {
  int channel = 0;
  int bank = 0;
  std::uint64_t row = 0;
  std::uint64_t region = 0;
};

RequestPlacement place_request(const DeviceTiming& timing,
                               const Request& request);

/// One bank's replay state: when it frees (restore/erase tails
/// included) and the DRAM row / photonic region it holds open.
/// ReplaySession owns it; the sched::Controller arbitrates on it read
/// only, through ReplaySession::banks and the two helpers below, so
/// queue arbitration and bank timing apply one rule.
struct BankState {
  std::uint64_t free_ps = 0;
  std::uint64_t open_row = ~0ull;
  std::uint64_t open_region = ~0ull;
};

/// When every bank serving a request placed on `bank` is free: a
/// striped device occupies all banks of the channel, so their latest.
inline std::uint64_t serving_free_ps(const DeviceTiming& timing,
                                     std::span<const BankState> banks,
                                     int bank) {
  if (!timing.line_striped_across_banks) {
    return banks[static_cast<std::size_t>(bank)].free_ps;
  }
  std::uint64_t free_ps = 0;
  for (const BankState& state : banks) {
    free_ps = std::max(free_ps, state.free_ps);
  }
  return free_ps;
}

/// The bank whose open row / region a request placed on `bank` sees:
/// bank 0 on a striped device, whose banks always share one state.
inline const BankState& lead_bank(const DeviceTiming& timing,
                                  std::span<const BankState> banks,
                                  int bank) {
  return banks[timing.line_striped_across_banks
                   ? 0
                   : static_cast<std::size_t>(bank)];
}

/// A partial replay result: the statistics of some subset of a run's
/// requests, before span-dependent finalization. Sessions accumulate
/// every per-request statistic in per-channel lanes and merge the lanes
/// in channel order (see finish_slice), so a slice covering only one
/// channel's traffic is bit-identical to that channel's lane inside a
/// full serial replay — the property the sharded engine's merge relies
/// on. span_ps and background_energy_pj stay zero until finalize_slice
/// derives them from the merged arrival/completion window.
struct ReplaySlice {
  SimStats stats;
  std::uint64_t fed = 0;               ///< Requests covered by the slice.
  std::uint64_t first_arrival_ps = 0;  ///< Meaningful only when fed > 0.
  std::uint64_t last_completion_ps = 0;
};

/// One shard lane: a full replay pipeline (a ReplaySession, or a
/// sched::Controller over one) that consumes exactly one channel's
/// subsequence of a run's stream. feed() is called in stream order by
/// the lane's single worker; finish_slice() is called once, after every
/// feed, from the merging thread (see memsim/sharded.hpp).
class ShardLane {
 public:
  virtual ~ShardLane() = default;
  virtual void feed(const Request& request) = 0;
  virtual ReplaySlice finish_slice() = 0;
};

/// Merges `from` into `into`: integer counters add, energy/busy-time
/// sums add, latency/queue/sched RunningStats merge (exact when either
/// side is empty — the case the bit-identity guarantee rests on), the
/// arrival/completion window widens, and names/flags fill in when
/// `into` lacks them. Merging slices in channel order reproduces the
/// serial reduction bit for bit.
void merge_slice(ReplaySlice& into, const ReplaySlice& from);

/// Closes a merged slice into final statistics: derives span_ps from
/// the arrival/completion window and charges span-proportional
/// background energy (always-on plus activity-gated) for `model`.
/// Identical, expression for expression, to what a serial
/// ReplaySession::finish computes.
SimStats finalize_slice(ReplaySlice slice, const DeviceModel& model);

class MemorySystem;

/// Push-mode incremental replay against one MemorySystem: feed()
/// schedules one request at a time (verifying the sorted-stream
/// contract), finish() closes the run and returns the aggregate
/// statistics. This is the primitive every engine builds on: the flat
/// engine streams into one session, and as a ShardLane a session is
/// the per-channel lane of a sharded tier replay (hybrid::TieredSystem
/// without a backend controller; the sched::Controller wraps one
/// too). The MemorySystem must outlive the session.
class ReplaySession final : public ShardLane {
 public:
  /// `telemetry`, when non-null, receives one RequestEvent per fed
  /// request in the recorder lane of the serving channel (the
  /// near-zero-cost observability hook: untraced sessions pay one null
  /// test per request). The recorder must outlive the session and span
  /// at least this system's channels/banks. A recorder may be shared by
  /// every lane of a stage: each lane writes only the recorder lane of
  /// the channel it serves (see telemetry.hpp).
  ReplaySession(const MemorySystem& system, std::string workload_name,
                telemetry::Recorder* telemetry = nullptr);
  ReplaySession(ReplaySession&&) noexcept;
  ReplaySession& operator=(ReplaySession&&) noexcept;
  ~ReplaySession() override;

  /// Schedules one request. Throws std::invalid_argument if it arrives
  /// before its predecessor, std::logic_error after finish().
  void feed(const Request& request) override;

  /// Scheduled-controller entry point: schedules `request` as if it
  /// were handed to the device at `issue_ps` (>= its arrival time),
  /// while all latency/queue-delay statistics stay anchored at the
  /// original arrival, and returns the completion instant. A
  /// sched::Controller reorders its transaction queues and feeds in
  /// issue order; the stream must be sorted by issue_ps *within each
  /// channel* (replay state is channel-local, so only per-channel order
  /// matters; a controller with independent per-channel issue clocks
  /// may interleave channels arbitrarily). Violations (issue before
  /// arrival, non-monotonic issue times on a channel) are controller
  /// bugs and throw std::logic_error. With issue_ps == arrival_ps on a
  /// sorted stream this is exactly feed(), bit for bit.
  std::uint64_t feed_issued(const Request& request, std::uint64_t issue_ps);

  /// The banks of `channel` as the requests fed so far left them.
  std::span<const BankState> banks(int channel) const;

  /// Closes the run: charges span-proportional background energy and
  /// returns the statistics. May be called once; throws std::logic_error
  /// on a second call. Equivalent to finalize_slice(finish_slice()).
  SimStats finish();

  /// Closes the run without finalizing: returns the per-channel lanes
  /// merged in channel order, ready for merge_slice with other shards'
  /// slices (then finalize_slice once). Same once-only contract as
  /// finish().
  ReplaySlice finish_slice() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class MemorySystem final : public Engine {
 public:
  explicit MemorySystem(DeviceModel model);

  const DeviceModel& model() const { return model_; }

  using Engine::run;

  /// Streams the source through one ReplaySession (see the header
  /// comment for the streaming contract). Always serial: flat direct
  /// replay is too cheap per request for per-channel sharding to pay
  /// (see memsim/sharded.hpp), whatever run_threads a spec carries.
  SimStats run(RequestSource& source,
               const std::string& workload_name = "") const override;

 private:
  friend class ReplaySession;
  DeviceModel model_;
};

}  // namespace comet::memsim
