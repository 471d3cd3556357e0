#include "sched/controller.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "memsim/sharded.hpp"
#include "telemetry/telemetry.hpp"
#include "util/names.hpp"
#include "util/ring.hpp"

namespace comet::sched {

const char* policy_name(Policy policy) {
  for (const PolicyInfo& info : known_policies()) {
    if (info.policy == policy) return info.name;
  }
  return "fcfs";
}

Policy policy_from_name(const std::string& name) {
  return util::find_named(known_policies(), name, "scheduling policy").policy;
}

const std::vector<PolicyInfo>& known_policies() {
  static const std::vector<PolicyInfo> policies = {
      {Policy::kFcfs, "fcfs",
       "in-order immediate handoff (the legacy arrival-order replay); "
       "its queues never fill",
       {}},
      {Policy::kFrFcfs, "frfcfs",
       "first-ready FCFS: oldest ready transaction first, preferring "
       "open-row / open-region hits",
       {}},
      {Policy::kReadFirst, "read-first",
       "reads issue ahead of writes, with write-drain hysteresis",
       {"drain_high_watermark", "drain_low_watermark"}},
      {Policy::kTokenBudget, "token-budget",
       "FR-FCFS limited to tenants with scheduling tokens left; buckets "
       "refill when every queued tenant is spent",
       {"tenant_tokens"}},
      {Policy::kFrFcfsCap, "frfcfs-cap",
       "FR-FCFS with a per-tenant starvation cap: tenants passed over "
       "too often outrank row hits until they issue",
       {"starvation_cap"}},
  };
  return policies;
}

void ControllerConfig::validate() const {
  if (read_queue_depth < 0 || write_queue_depth < 0) {
    throw std::invalid_argument(
        "ControllerConfig: queue depths must be >= 0 (0 = unbounded)");
  }
  if (drain_high_watermark < 1) {
    throw std::invalid_argument(
        "ControllerConfig: drain_high_watermark must be >= 1");
  }
  if (drain_low_watermark < 0 ||
      drain_low_watermark > drain_high_watermark) {
    throw std::invalid_argument(
        "ControllerConfig: need 0 <= drain_low_watermark <= "
        "drain_high_watermark");
  }
  if (write_queue_depth > 0 && drain_high_watermark > write_queue_depth) {
    throw std::invalid_argument(
        "ControllerConfig: drain_high_watermark " +
        std::to_string(drain_high_watermark) + " exceeds write_queue_depth " +
        std::to_string(write_queue_depth) +
        "; the write queue can never fill that far");
  }
  if (tenant_tokens < 1) {
    throw std::invalid_argument(
        "ControllerConfig: tenant_tokens must be >= 1");
  }
  if (starvation_cap < 1) {
    throw std::invalid_argument(
        "ControllerConfig: starvation_cap must be >= 1");
  }
}

ControllerConfig ControllerConfig::with_depths(Policy policy,
                                               int read_queue_depth,
                                               int write_queue_depth) {
  ControllerConfig config;
  config.policy = policy;
  config.read_queue_depth = read_queue_depth;
  config.write_queue_depth = write_queue_depth;
  if (write_queue_depth > 0) {
    config.drain_high_watermark = std::max(1, write_queue_depth * 7 / 8);
    config.drain_low_watermark = write_queue_depth * 3 / 8;
  }
  config.validate();
  return config;
}

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// Policies consider at most this many of the oldest entries per queue
/// — the finite scheduler window of a real controller's CAM. It only
/// binds for unbounded (depth-0) queues deeper than any built-in
/// configuration, and keeps each issue decision O(window) instead of
/// O(queued), so saturating unbounded runs stay linear overall.
constexpr std::size_t kScanWindow = 256;

struct QueuedTx {
  std::uint64_t seq = 0;
  memsim::Request request;
  std::uint64_t admit_ps = 0;  ///< When it entered the transaction queue.
  memsim::RequestPlacement placement;
};

}  // namespace

struct Controller::Impl {
  const memsim::DeviceTiming& timing;
  const ControllerConfig config;
  telemetry::Recorder* const telemetry;  ///< Null = no observability cost.
  memsim::ReplaySession session;

  struct Pick {
    bool valid = false;
    bool from_writes = false;
    std::size_t index = 0;
    std::uint64_t issue_ps = 0;
    /// Starvation boost (frfcfs-cap): 0 = the candidate's tenant hit
    /// its cap and outranks everything un-starved. Policies that do
    /// not rank tenants leave every pick at 0, so the comparison below
    /// degenerates to the legacy order bit for bit.
    int tenant_rank = 0;
    int hit_rank = 1;  ///< 0 = open-row/-region hit (preferred).
    std::uint64_t seq = 0;

    bool beats(const Pick& other) const {
      if (!other.valid) return true;
      if (tenant_rank != other.tenant_rank) {
        return tenant_rank < other.tenant_rank;
      }
      if (issue_ps != other.issue_ps) return issue_ps < other.issue_ps;
      if (hit_rank != other.hit_rank) return hit_rank < other.hit_rank;
      return seq < other.seq;
    }
  };

  struct Channel {
    int index = 0;  ///< The channel's own number (telemetry lane).
    util::RingQueue<QueuedTx> reads;
    util::RingQueue<QueuedTx> writes;
    // Admission overflow: arrivals that found their (bounded) queue
    // full wait here, entering FIFO when an issue frees a slot.
    util::RingQueue<QueuedTx> stalled_reads;
    util::RingQueue<QueuedTx> stalled_writes;
    bool draining = false;
    // Fairness-policy state, indexed by Request::tenant (0, the
    // untagged stream, included) and grown on demand — untagged legacy
    // runs under legacy policies never allocate. Strictly channel-local
    // like every other scheduling input, so sharded runs reproduce the
    // serial decisions exactly.
    std::vector<int> tokens;  ///< token-budget: issues left this epoch.
    std::vector<std::uint64_t> starved;  ///< frfcfs-cap: passes endured.
    std::vector<std::uint64_t> queued_per_tenant;  ///< frfcfs-cap.
    // A channel's pick depends only on its own queues/banks/drain
    // state, so it stays valid until this channel issues or admits —
    // advance_until then rescans only the touched channel.
    Pick cached_pick;
    bool pick_dirty = true;
    /// The channel's issue clock: only ever moves forward. A deferred
    /// transaction (a write held behind reads, say) whose bank has long
    /// been idle still issues when the scheduler turns to it, not
    /// retroactively. Per channel — not global — because a channel's
    /// scheduling depends on nothing outside the channel; this is what
    /// lets a sharded run drive each channel on its own worker and
    /// still match the serial controller decision for decision. The
    /// session's issue-sorted contract is per-channel to match.
    std::uint64_t last_issue = 0;
    /// The channel's scheduler breakdown, merged in channel order by
    /// finish_slice — the same lane discipline as the replay session itself
    /// (see memsim::ReplaySlice), and for the same reason.
    memsim::SimStats stats;
  };
  std::vector<Channel> channels;

  std::uint64_t next_seq = 0;
  std::uint64_t admitted = 0;
  std::uint64_t prev_arrival = 0;
  bool finished = false;

  Impl(const memsim::MemorySystem& sys, const ControllerConfig& cfg,
       std::string workload_name, telemetry::Recorder* recorder)
      : timing(sys.model().timing),
        config(cfg),
        telemetry(recorder),
        session(sys, std::move(workload_name), recorder) {
    channels.resize(static_cast<std::size_t>(timing.channels));
    for (std::size_t c = 0; c < channels.size(); ++c) {
      auto& ch = channels[c];
      ch.index = static_cast<int>(c);
      if (config.read_queue_depth > 0) {
        ch.reads.reserve(static_cast<std::size_t>(config.read_queue_depth));
      }
      if (config.write_queue_depth > 0) {
        ch.writes.reserve(static_cast<std::size_t>(config.write_queue_depth));
      }
    }
  }

  /// Earliest instant `tx` could start on its target bank(s), read
  /// from the session's `banks` of the transaction's channel.
  std::uint64_t ready_time(std::span<const memsim::BankState> banks,
                           const QueuedTx& tx) const {
    return std::max(tx.admit_ps,
                    memsim::serving_free_ps(timing, banks, tx.placement.bank));
  }

  /// FR-FCFS preference: the open DRAM row, or the currently selected
  /// photonic GST region (whose switch penalty behaves like a row miss).
  bool open_hit(std::span<const memsim::BankState> banks,
                const QueuedTx& tx) const {
    const memsim::BankState& lead =
        memsim::lead_bank(timing, banks, tx.placement.bank);
    return (timing.has_row_buffer && lead.open_row == tx.placement.row) ||
           (timing.region_size_bytes &&
            lead.open_region == tx.placement.region);
  }

  /// The transaction this channel's policy would issue next (and when),
  /// or an invalid pick when nothing is queued. fcfs never holds
  /// transactions, so its channels never have picks. Non-const because
  /// token-budget refills the channel's buckets when every queued
  /// tenant is spent (channel-local, so still deterministic).
  Pick next_issue(Channel& ch) {
    Pick best;
    const std::span<const memsim::BankState> banks = session.banks(ch.index);
    // use_tokens skips candidates whose tenant bucket is empty (a
    // tenant the channel has not seen yet has an untouched full
    // bucket); use_starvation boosts candidates whose tenant endured
    // starvation_cap cross-tenant issues (see Pick::tenant_rank).
    const auto consider = [&](const util::RingQueue<QueuedTx>& q,
                              bool from_writes, bool prefer_hits,
                              bool use_tokens = false,
                              bool use_starvation = false) {
      const std::size_t window = std::min(q.size(), kScanWindow);
      for (std::size_t i = 0; i < window; ++i) {
        const QueuedTx& tx = q[i];
        const std::size_t tenant = tx.request.tenant;
        if (use_tokens && tenant < ch.tokens.size() &&
            ch.tokens[tenant] <= 0) {
          continue;
        }
        Pick p;
        p.valid = true;
        p.from_writes = from_writes;
        p.index = i;
        p.issue_ps = ready_time(banks, tx);
        p.hit_rank = prefer_hits && open_hit(banks, tx) ? 0 : 1;
        if (use_starvation) {
          p.tenant_rank =
              tenant < ch.starved.size() &&
                      ch.starved[tenant] >=
                          static_cast<std::uint64_t>(config.starvation_cap)
                  ? 0
                  : 1;
        }
        p.seq = tx.seq;
        if (p.beats(best)) best = p;
      }
    };
    switch (config.policy) {
      case Policy::kFcfs:
        break;
      case Policy::kFrFcfs:
        consider(ch.reads, /*from_writes=*/false, /*prefer_hits=*/true);
        consider(ch.writes, /*from_writes=*/true, /*prefer_hits=*/true);
        break;
      case Policy::kReadFirst: {
        // Strict read priority: writes issue only while draining or
        // when no read is pending (opportunistic background writes).
        const bool writes_first = ch.draining || ch.reads.empty();
        const auto& preferred = writes_first ? ch.writes : ch.reads;
        if (!preferred.empty()) {
          consider(preferred, writes_first, /*prefer_hits=*/false);
        } else {
          consider(writes_first ? ch.reads : ch.writes, !writes_first,
                   /*prefer_hits=*/false);
        }
        break;
      }
      case Policy::kTokenBudget:
        consider(ch.reads, /*from_writes=*/false, /*prefer_hits=*/true,
                 /*use_tokens=*/true);
        consider(ch.writes, /*from_writes=*/true, /*prefer_hits=*/true,
                 /*use_tokens=*/true);
        if (!best.valid && !(ch.reads.empty() && ch.writes.empty())) {
          // Every in-window candidate is out of tokens: refill the
          // buckets and open the next epoch. The rescan is guaranteed
          // a pick, so a non-empty channel never deadlocks.
          std::fill(ch.tokens.begin(), ch.tokens.end(),
                    config.tenant_tokens);
          consider(ch.reads, /*from_writes=*/false, /*prefer_hits=*/true,
                   /*use_tokens=*/true);
          consider(ch.writes, /*from_writes=*/true, /*prefer_hits=*/true,
                   /*use_tokens=*/true);
        }
        break;
      case Policy::kFrFcfsCap:
        consider(ch.reads, /*from_writes=*/false, /*prefer_hits=*/true,
                 /*use_tokens=*/false, /*use_starvation=*/true);
        consider(ch.writes, /*from_writes=*/true, /*prefer_hits=*/true,
                 /*use_tokens=*/false, /*use_starvation=*/true);
        break;
    }
    return best;
  }

  void update_drain(Channel& ch, std::uint64_t at_ps) {
    if (config.policy != Policy::kReadFirst) return;
    if (!ch.draining) {
      if (static_cast<int>(ch.writes.size()) >= config.drain_high_watermark) {
        ch.draining = true;
        ++ch.stats.write_drains;
        if (telemetry) {
          telemetry->record_mark(ch.index, telemetry::MarkKind::kDrainBegin,
                                 at_ps);
        }
      }
    } else if (static_cast<int>(ch.writes.size()) <=
               config.drain_low_watermark) {
      ch.draining = false;
      if (telemetry) {
        telemetry->record_mark(ch.index, telemetry::MarkKind::kDrainEnd,
                               at_ps);
      }
    }
  }

  /// frfcfs-cap bookkeeping: a transaction of `tenant` became
  /// schedulable on `ch` (stalled arrivals count only once admitted —
  /// starvation boosts are pointless while nothing can be picked).
  void note_queued(Channel& ch, std::size_t tenant) {
    if (ch.queued_per_tenant.size() <= tenant) {
      ch.queued_per_tenant.resize(tenant + 1, 0);
      ch.starved.resize(tenant + 1, 0);
    }
    ++ch.queued_per_tenant[tenant];
  }

  /// Moves stalled arrivals into the queue a just-freed slot belongs
  /// to; they entered the controller at `at_ps` (the freeing issue).
  void admit_overflow(Channel& ch, bool from_writes, std::uint64_t at_ps) {
    auto& stalled = from_writes ? ch.stalled_writes : ch.stalled_reads;
    auto& q = from_writes ? ch.writes : ch.reads;
    const int depth =
        from_writes ? config.write_queue_depth : config.read_queue_depth;
    while (!stalled.empty() &&
           (depth == 0 || static_cast<int>(q.size()) < depth)) {
      QueuedTx tx = std::move(stalled.front());
      stalled.pop_front();
      tx.admit_ps = std::max(tx.request.arrival_ps, at_ps);
      if (config.policy == Policy::kFrFcfsCap) {
        note_queued(ch, tx.request.tenant);
      }
      q.push_back(std::move(tx));
    }
  }

  void issue(Channel& ch, bool from_writes, std::size_t index,
             std::uint64_t ready_ps) {
    auto& q = from_writes ? ch.writes : ch.reads;
    const QueuedTx tx = std::move(q[index]);
    q.erase_at(index);

    const std::size_t tenant = tx.request.tenant;
    if (config.policy == Policy::kTokenBudget) {
      if (ch.tokens.size() <= tenant) {
        ch.tokens.resize(tenant + 1, config.tenant_tokens);
      }
      --ch.tokens[tenant];
    } else if (config.policy == Policy::kFrFcfsCap) {
      // The issuer's patience resets; every other tenant still holding
      // schedulable work on this channel was passed over once more.
      --ch.queued_per_tenant[tenant];
      ch.starved[tenant] = 0;
      for (std::size_t t = 0; t < ch.queued_per_tenant.size(); ++t) {
        if (t != tenant && ch.queued_per_tenant[t] > 0) ++ch.starved[t];
      }
    }

    const std::uint64_t issue_ps = std::max(ready_ps, ch.last_issue);
    ch.last_issue = issue_ps;
    const std::uint64_t completion_ps =
        session.feed_issued(tx.request, issue_ps);
    ch.stats.sched_queue_delay_ns.add(
        static_cast<double>(issue_ps - tx.request.arrival_ps) * 1e-3);
    ch.stats.service_latency_ns.add(
        static_cast<double>(completion_ps - issue_ps) * 1e-3);

    if (from_writes && ch.draining) {
      ++ch.stats.drained_writes;
      if (telemetry) telemetry->record_drained_write(ch.index, issue_ps);
      if (!ch.reads.empty()) ++ch.stats.drain_stalls;
    }
    admit_overflow(ch, from_writes, issue_ps);
    update_drain(ch, issue_ps);
    ch.pick_dirty = true;
  }

  const Pick& channel_pick(Channel& ch) {
    if (ch.pick_dirty) {
      ch.cached_pick = next_issue(ch);
      ch.pick_dirty = false;
    }
    return ch.cached_pick;
  }

  /// Issues, globally in (time, age) order, every transaction whose
  /// issue instant is <= limit. Channel state is channel-local, so the
  /// per-channel issue subsequence (and every statistic) is the same
  /// however arrivals on *other* channels interleave the calls — the
  /// invariant the sharded engine's bit-identity rests on. Per-channel
  /// issue instants only move forward (bank free times monotonically
  /// advance, overflow admits at the freeing issue), so the session's
  /// per-channel issue-sorted contract holds.
  void advance_until(std::uint64_t limit) {
    for (;;) {
      Pick best;
      std::size_t best_channel = 0;
      for (std::size_t c = 0; c < channels.size(); ++c) {
        const Pick& p = channel_pick(channels[c]);
        if (p.valid && p.beats(best)) {
          best = p;
          best_channel = c;
        }
      }
      if (!best.valid || best.issue_ps > limit) return;
      issue(channels[best_channel], best.from_writes, best.index,
            best.issue_ps);
    }
  }

  void feed(const memsim::Request& req) {
    memsim::check_arrival_order(admitted, prev_arrival, req.arrival_ps);
    prev_arrival = req.arrival_ps;
    ++admitted;

    // Bring the controller up to this arrival instant.
    advance_until(req.arrival_ps);

    QueuedTx tx;
    tx.seq = next_seq++;
    tx.request = req;
    tx.admit_ps = req.arrival_ps;
    tx.placement = memsim::place_request(timing, req);

    auto& ch = channels[static_cast<std::size_t>(tx.placement.channel)];
    const bool is_write = req.op == memsim::Op::kWrite;
    // The queue state each arrival observes (before joining it).
    ch.stats.read_queue_occupancy.add(static_cast<double>(ch.reads.size()));
    ch.stats.write_queue_occupancy.add(static_cast<double>(ch.writes.size()));
    if (telemetry) {
      telemetry->record_queue_sample(ch.index, req.arrival_ps,
                                     ch.reads.size(), ch.writes.size());
    }

    auto& q = is_write ? ch.writes : ch.reads;
    if (config.policy == Policy::kFcfs) {
      // In-order immediate handoff: the device's own outstanding window
      // does all buffering — exactly the legacy arrival-order replay,
      // so unbounded-queue fcfs is bit-identical to no controller.
      q.push_back(std::move(tx));
      issue(ch, is_write, q.size() - 1, req.arrival_ps);
      return;
    }

    auto& stalled = is_write ? ch.stalled_writes : ch.stalled_reads;
    const int depth =
        is_write ? config.write_queue_depth : config.read_queue_depth;
    if (depth > 0 &&
        (static_cast<int>(q.size()) >= depth || !stalled.empty())) {
      ++ch.stats.admit_stalls;
      if (telemetry) {
        telemetry->record_mark(ch.index, telemetry::MarkKind::kAdmitStall,
                               req.arrival_ps);
      }
      stalled.push_back(std::move(tx));
    } else {
      if (config.policy == Policy::kFrFcfsCap) {
        note_queued(ch, tx.request.tenant);
      }
      q.push_back(std::move(tx));
      update_drain(ch, req.arrival_ps);
      ch.pick_dirty = true;
    }
  }

  memsim::ReplaySlice finish_slice() {
    finished = true;
    advance_until(kNever);  // Drain every queue, stalled arrivals included.
    memsim::ReplaySlice slice = session.finish_slice();
    slice.stats.scheduled = true;
    slice.stats.sched_policy = policy_name(config.policy);
    // Channel-ordered lane merge, mirroring the session's own: a shard
    // that saw only channel k's traffic produces exactly channel k's
    // accumulators, so merging shard slices in channel order is the
    // same reduction.
    for (auto& ch : channels) {
      memsim::merge_slice(slice, {.stats = std::move(ch.stats)});
    }
    return slice;
  }
};

Controller::Controller(const memsim::MemorySystem& system,
                       ControllerConfig config, std::string workload_name,
                       telemetry::Recorder* telemetry) {
  config.validate();
  impl_ = std::make_unique<Impl>(system, config, std::move(workload_name),
                                 telemetry);
}

Controller::Controller(Controller&&) noexcept = default;
Controller& Controller::operator=(Controller&&) noexcept = default;
Controller::~Controller() = default;

void Controller::feed(const memsim::Request& request) {
  if (impl_->finished) {
    throw std::logic_error("sched::Controller: feed() after finish_slice()");
  }
  impl_->feed(request);
}

memsim::ReplaySlice Controller::finish_slice() {
  if (impl_->finished) {
    throw std::logic_error("sched::Controller: finish_slice() called twice");
  }
  return impl_->finish_slice();
}

ScheduledSystem::ScheduledSystem(memsim::DeviceModel model,
                                 ControllerConfig config, int run_threads)
    : system_(std::move(model)),
      config_(config),
      run_threads_(memsim::resolve_run_threads(run_threads)) {
  config_.validate();
}

memsim::SimStats ScheduledSystem::run(memsim::RequestSource& source,
                                      const std::string& workload_name) const {
  telemetry::Recorder* recorder = telemetry_stage(system_.model().timing);
  std::vector<memsim::LaneTier> tiers;
  tiers.push_back(memsim::make_tier(system_, [&] {
    return std::make_unique<Controller>(system_, config_, workload_name,
                                        recorder);
  }));
  std::vector<memsim::ReplaySlice> slices = memsim::run_sharded(
      std::move(tiers), run_threads_, source, profiler(), "",
      [](const memsim::Request& request, auto& emit) { emit(0, request); });
  return memsim::finalize_slice(std::move(slices.front()), system_.model());
}

}  // namespace comet::sched
