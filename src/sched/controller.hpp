#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "memsim/device.hpp"
#include "memsim/engine.hpp"
#include "memsim/request.hpp"
#include "memsim/stats.hpp"
#include "memsim/system.hpp"

/// Event-driven memory-controller front-end: per-channel transaction
/// queues (a bounded read queue and a bounded write queue) with
/// pluggable scheduling policies, layered on top of the existing
/// DeviceModel bank timing (the ReplaySession back-end).
///
/// The paper's controller hides OPCM's asymmetric read/write latencies
/// by reordering around busy banks and deferring writes (cf. PCMCsim's
/// uCMDEngine/queue pipeline); the arrival-order replay the engine used
/// until now models none of that. This layer does:
///
///   - `fcfs`: in-order immediate handoff — every request is issued to
///     the device the instant it arrives, exactly the legacy
///     arrival-order replay. With unbounded queues this is bit-identical
///     to running without a controller (the regression anchor).
///   - `frfcfs`: first-ready FCFS — a transaction issues when its
///     target bank frees, oldest-first among ready candidates but
///     preferring open-row hits (DRAM row buffer) and open-region hits
///     (photonic GST region, whose switch penalty behaves like a row
///     miss). Batching same-row/-region traffic is where the reorder
///     gain comes from.
///   - `read-first`: reads always issue ahead of writes (reads are
///     latency-critical; OPCM writes are several times slower), with
///     write-drain hysteresis: when the write queue reaches the high
///     watermark the channel enters drain mode and issues writes —
///     stalling reads — until occupancy falls to the low watermark.
///   - `token-budget`: FR-FCFS arbitration restricted to tenants with
///     scheduling tokens left. Every tenant stream starts each epoch
///     with `tenant_tokens` tokens per channel; an issue consumes one,
///     and when no queued candidate has tokens left the channel refills
///     every bucket and starts the next epoch. A heavy tenant thus gets
///     at most `tenant_tokens` issues per epoch before lighter tenants
///     catch up — per-stream bandwidth reservation in the small.
///   - `frfcfs-cap`: FR-FCFS with a per-tenant starvation cap. Each
///     time a channel issues for one tenant while another has work
///     queued, the waiting tenant's starvation counter ticks; at
///     `starvation_cap` its transactions outrank every un-starved
///     candidate (row hits included) until one issues. Bounds the
///     tail-latency a locality-heavy neighbour can inflict.
///
/// The fairness policies act on Request::tenant (tenant::MultiSource
/// tags streams; untagged runs are one implicit tenant 0, for which
/// both reduce to frfcfs arbitration with identical results).
///
/// Queue bounds model finite controller SRAM: an arrival that finds its
/// queue full waits (an admit stall) until the scheduler issues enough
/// queued transactions to free a slot. fcfs never holds transactions,
/// so its queues never fill and the bounds only bind for the reordering
/// policies. Reordering policies scan at most the 256 oldest entries
/// per queue (a real controller's finite CAM window), so even unbounded
/// queues schedule in O(1) amortized work per transaction.
///
/// Everything is deterministic and single-threaded per run; Controller
/// instances live on the stack of each Engine::run call, so sweeps stay
/// bit-identical for any thread count.
namespace comet::sched {

enum class Policy : std::uint8_t {
  kFcfs,
  kFrFcfs,
  kReadFirst,
  kTokenBudget,
  kFrFcfsCap,
};

/// "fcfs" | "frfcfs" | "read-first" | "token-budget" | "frfcfs-cap".
const char* policy_name(Policy policy);

/// Throws std::invalid_argument naming the valid set on unknown names.
Policy policy_from_name(const std::string& name);

/// One documentable scheduling policy: its CLI/TOML token, a one-line
/// behavioural summary, and the `[controller]` document keys only this
/// policy reads (every policy reads the queue depths). What
/// `comet_sim --list-policies` prints.
struct PolicyInfo {
  Policy policy;
  const char* name;
  const char* summary;
  std::vector<const char*> knobs;
};

/// Every policy the build knows, in token order. The single source of
/// truth for CLI discovery; adding a Policy enumerator without a row
/// here fails the driver tests.
const std::vector<PolicyInfo>& known_policies();

struct ControllerConfig {
  Policy policy = Policy::kFcfs;

  /// Transaction-queue bounds per channel; 0 = unbounded.
  int read_queue_depth = 32;
  int write_queue_depth = 32;

  /// Write-drain hysteresis (read-first policy): enter drain mode at
  /// `write queue occupancy >= high`, leave at `occupancy <= low`.
  /// Equal watermarks are legal (each episode drains one write).
  int drain_high_watermark = 28;
  int drain_low_watermark = 12;

  /// token-budget policy: issues each tenant may make per channel per
  /// refill epoch (see the policy summary above).
  int tenant_tokens = 64;

  /// frfcfs-cap policy: cross-tenant issues a queued tenant tolerates
  /// on a channel before its transactions outrank un-starved ones.
  int starvation_cap = 16;

  /// Throws std::invalid_argument on negative depths, watermarks
  /// outside [0 <= low <= high], high < 1, a high watermark the
  /// bounded write queue can never reach, or fairness knobs < 1.
  void validate() const;

  /// Config with the drain watermarks re-derived from the write-queue
  /// depth (high = 7/8, low = 3/8 of a bounded depth; the defaults for
  /// an unbounded one) — what the CLI and TOML layers use when only
  /// depths are given.
  static ControllerConfig with_depths(Policy policy, int read_queue_depth,
                                      int write_queue_depth);
  bool operator==(const ControllerConfig&) const = default;
};

/// Push-mode scheduled replay against one MemorySystem — the
/// ReplaySession of the scheduler world. feed() admits demand requests
/// in arrival order; the controller queues, reorders and issues them
/// into an internal ReplaySession (in issue order, via feed_issued),
/// arbitrating on that session's bank state, and finish_slice() drains
/// every queue and returns the slice with the scheduler breakdown
/// filled in. As a ShardLane it is the per-channel lane of a sharded
/// scheduled replay: fed only one channel's subsequence, it reproduces
/// the full controller's per-channel behaviour decision for decision,
/// because scheduling decisions, issue clocks and every scheduler
/// statistic are channel-local. The MemorySystem must outlive the
/// controller.
class Controller final : public memsim::ShardLane {
 public:
  /// Validates the config. `telemetry`, when non-null, receives one
  /// RequestEvent per issued request plus the scheduler-side signal:
  /// queue-occupancy samples at every admit, admit-stall and
  /// drain-begin/-end marks, and drained-write ticks — all in the
  /// recorder lane of the serving channel, so a shared recorder stays
  /// race-free across per-channel lanes (see telemetry.hpp). The
  /// recorder must outlive the controller.
  Controller(const memsim::MemorySystem& system, ControllerConfig config,
             std::string workload_name,
             telemetry::Recorder* telemetry = nullptr);
  Controller(Controller&&) noexcept;
  Controller& operator=(Controller&&) noexcept;
  ~Controller() override;

  /// Admits one demand request. Throws std::invalid_argument if it
  /// arrives before its predecessor, std::logic_error after
  /// finish_slice().
  void feed(const memsim::Request& request) override;

  /// Drains every queue and closes the run without finalizing: the
  /// session's slice with the scheduler breakdown merged in
  /// (per-channel lanes, channel order — the same reduction a sharded
  /// merge performs); memsim::finalize_slice turns it into the run's
  /// statistics. May be called once; throws std::logic_error on a
  /// second call.
  memsim::ReplaySlice finish_slice() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Engine adapter: a flat MemorySystem behind a Controller front-end.
/// Const and stateless across runs like every Engine — the controllers
/// live on the stack of each run() call. Every run replays one tier of
/// per-channel Controller lanes through memsim::run_sharded behind an
/// identity route: run_threads > 1 spreads the lanes over a worker
/// pool, run_threads <= 1 feeds them inline on the caller's thread, so
/// a profiled run always reports one pool "" (threads 0 when inline)
/// and a "shard_merge" stage, as a hybrid run does. Results are
/// bit-identical for any thread count and to one Controller driven over
/// the whole stream (the test gates in tests/test_sharded.cpp cover
/// every policy). Unlike flat direct replay, which is always serial,
/// controller work per request is heavy enough for sharding to pay.
class ScheduledSystem final : public memsim::Engine {
 public:
  /// Validates both the model and the controller config; `run_threads`
  /// as in memsim::resolve_run_threads.
  ScheduledSystem(memsim::DeviceModel model, ControllerConfig config,
                  int run_threads = 1);

  using Engine::run;

  memsim::SimStats run(memsim::RequestSource& source,
                       const std::string& workload_name = "") const override;

 private:
  memsim::MemorySystem system_;
  ControllerConfig config_;
  int run_threads_ = 1;
};

}  // namespace comet::sched
