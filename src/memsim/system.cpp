#include "memsim/system.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "memsim/pump.hpp"
#include "telemetry/telemetry.hpp"
#include "util/ring.hpp"

namespace comet::memsim {
namespace {

struct ChannelState {
  std::vector<BankState> banks;
  util::RingQueue<std::uint64_t> inflight_completions;
  std::uint64_t prev_issue = 0;
  /// This channel's statistics lane. Every per-request accumulation is
  /// channel-local; finish_slice() merges the lanes in channel order.
  /// This is what the sharded engine's bit-identity rests on: a session
  /// fed only channel k's requests populates exactly this lane (its
  /// other lanes stay empty, and empty-side merges are exact), so
  /// merging shard slices in channel order performs the same reduction,
  /// operand for operand, as the serial session's own lane merge.
  ReplaySlice lane;
};

/// Controller address hash (NVMain-style bank/channel interleaving):
/// spreads hot lines over channels and banks so that Zipf-skewed streams
/// do not serialize on one bank. Applied identically to every device.
std::uint64_t mix_line_index(std::uint64_t line) {
  std::uint64_t x = line;
  x ^= x >> 13;
  x *= 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return x;
}

/// Pushes `t` past any refresh window it falls into.
std::uint64_t avoid_refresh(std::uint64_t t, const DeviceTiming& timing) {
  if (timing.refresh_interval_ps == 0) return t;
  const std::uint64_t phase = t % timing.refresh_interval_ps;
  if (phase < timing.refresh_duration_ps) {
    return t - phase + timing.refresh_duration_ps;
  }
  return t;
}

}  // namespace

void throw_unsorted(std::uint64_t index, std::uint64_t prev_ps,
                    std::uint64_t arrival_ps) {
  std::ostringstream msg;
  msg << "unsorted trace: request at index " << index << " arrives at "
      << arrival_ps << " ps, before the previous request's " << prev_ps
      << " ps";
  throw std::invalid_argument(msg.str());
}

RequestPlacement place_request(const DeviceTiming& timing,
                               const Request& request) {
  const std::uint64_t line_index =
      mix_line_index(request.address / timing.line_bytes);
  RequestPlacement placement;
  placement.channel = static_cast<int>(
      line_index % static_cast<std::uint64_t>(timing.channels));
  placement.bank = static_cast<int>(
      (line_index / static_cast<std::uint64_t>(timing.channels)) %
      static_cast<std::uint64_t>(timing.banks_per_channel));
  placement.row = request.address / timing.row_size_bytes;
  placement.region = timing.region_size_bytes
                         ? request.address / timing.region_size_bytes
                         : 0;
  return placement;
}

void merge_slice(ReplaySlice& into, const ReplaySlice& from) {
  SimStats& a = into.stats;
  const SimStats& b = from.stats;
  if (a.device_name.empty()) a.device_name = b.device_name;
  if (a.workload_name.empty()) a.workload_name = b.workload_name;

  if (from.fed > 0) {
    into.first_arrival_ps =
        into.fed > 0 ? std::min(into.first_arrival_ps, from.first_arrival_ps)
                     : from.first_arrival_ps;
    into.last_completion_ps =
        std::max(into.last_completion_ps, from.last_completion_ps);
  }
  into.fed += from.fed;

  a.reads += b.reads;
  a.writes += b.writes;
  a.bytes_transferred += b.bytes_transferred;
  a.read_latency_ns.merge(b.read_latency_ns);
  a.write_latency_ns.merge(b.write_latency_ns);
  a.queue_delay_ns.merge(b.queue_delay_ns);
  a.dynamic_energy_pj += b.dynamic_energy_pj;
  a.total_bank_busy_ns += b.total_bank_busy_ns;
  // span_ps / background_energy_pj stay untouched: they are derived
  // from the merged window by finalize_slice, never merged.

  a.hybrid = a.hybrid || b.hybrid;
  a.cache_hits += b.cache_hits;
  a.cache_misses += b.cache_misses;
  a.cache_fills += b.cache_fills;
  a.writebacks += b.writebacks;
  a.dram_tier_energy_pj += b.dram_tier_energy_pj;
  a.backend_tier_energy_pj += b.backend_tier_energy_pj;

  a.scheduled = a.scheduled || b.scheduled;
  if (a.sched_policy.empty()) a.sched_policy = b.sched_policy;
  a.sched_queue_delay_ns.merge(b.sched_queue_delay_ns);
  a.service_latency_ns.merge(b.service_latency_ns);
  a.read_queue_occupancy.merge(b.read_queue_occupancy);
  a.write_queue_occupancy.merge(b.write_queue_occupancy);
  a.write_drains += b.write_drains;
  a.drained_writes += b.drained_writes;
  a.drain_stalls += b.drain_stalls;
  a.admit_stalls += b.admit_stalls;

  // Element-wise tenant merge. A lane that never saw tenant k carries
  // an empty breakdown at k-1 (or a shorter vector), and empty-side
  // RunningStats merges are exact — the same argument as the channel
  // lanes themselves.
  if (a.tenants.size() < b.tenants.size()) a.tenants.resize(b.tenants.size());
  for (std::size_t i = 0; i < b.tenants.size(); ++i) {
    TenantBreakdown& ta = a.tenants[i];
    const TenantBreakdown& tb = b.tenants[i];
    if (ta.name.empty()) ta.name = tb.name;
    ta.reads += tb.reads;
    ta.writes += tb.writes;
    ta.bytes_transferred += tb.bytes_transferred;
    ta.latency_ns.merge(tb.latency_ns);
    if (ta.alone_avg_latency_ns == 0.0) {
      ta.alone_avg_latency_ns = tb.alone_avg_latency_ns;
    }
    if (ta.slowdown == 0.0) ta.slowdown = tb.slowdown;
  }
  // max_slowdown / fairness_index stay untouched: derived from the
  // merged breakdowns by the multi-tenant runner, never merged.
}

SimStats finalize_slice(ReplaySlice slice, const DeviceModel& model) {
  SimStats stats = std::move(slice.stats);
  if (slice.fed == 0) return stats;
  stats.span_ps = slice.last_completion_ps - slice.first_arrival_ps;
  // W * ps = 1e-12 J = 1 pJ per (W * ps): power[W] x time[ps] -> pJ.
  stats.background_energy_pj =
      model.energy.background_power_w * static_cast<double>(stats.span_ps);
  // Activity-gated power (dynamic laser management, [43]): charged only
  // for the fraction of time banks are actually busy.
  const int total_banks =
      model.timing.channels * model.timing.banks_per_channel;
  stats.background_energy_pj += model.energy.gateable_background_power_w *
                                static_cast<double>(stats.span_ps) *
                                stats.bank_utilization(total_banks);
  return stats;
}

struct ReplaySession::Impl {
  const MemorySystem& system;
  telemetry::Recorder* const telemetry;  ///< Null on untraced runs.
  std::string workload_name;
  std::vector<ChannelState> channels;
  std::uint64_t fed = 0;
  std::uint64_t prev_arrival = 0;
  bool finished = false;

  Impl(const MemorySystem& sys, std::string workload,
       telemetry::Recorder* recorder)
      : system(sys), telemetry(recorder), workload_name(std::move(workload)) {
    const DeviceTiming& t = sys.model_.timing;
    channels.resize(static_cast<std::size_t>(t.channels));
    for (auto& ch : channels) {
      ch.banks.resize(static_cast<std::size_t>(t.banks_per_channel));
      ch.inflight_completions.reserve(
          static_cast<std::size_t>(t.queue_depth));
    }
  }

  std::uint64_t feed(const Request& req, std::uint64_t issue_ps,
                     bool check_issue_order) {
    const DeviceModel& model = system.model_;
    const DeviceTiming& t = model.timing;

    prev_arrival = req.arrival_ps;
    ++fed;

    const RequestPlacement placement = place_request(t, req);
    auto& ch = channels[static_cast<std::size_t>(placement.channel)];

    // Issue order is a per-channel contract (see feed_issued): replay
    // state is channel-local, and a controller with independent
    // per-channel issue clocks may interleave channels arbitrarily.
    if (check_issue_order && ch.lane.fed != 0 &&
        issue_ps < ch.prev_issue) {
      throw std::logic_error(
          "ReplaySession: scheduler issued requests out of order");
    }
    ch.prev_issue = issue_ps;

    // One request may need several device accesses: large requests span
    // lines, and narrow-subarray architectures (corrected COSMOS) need
    // several accesses per line.
    const std::uint64_t lines_needed =
        (req.size_bytes + t.line_bytes - 1) / t.line_bytes;
    const std::uint64_t accesses =
        lines_needed * static_cast<std::uint64_t>(t.accesses_per_line);

    std::uint64_t earliest = issue_ps;
    // Bounded outstanding window: with queue_depth requests in flight,
    // service waits for the oldest to complete.
    if (ch.inflight_completions.size() >=
        static_cast<std::size_t>(t.queue_depth)) {
      earliest = std::max(earliest, ch.inflight_completions.front());
      ch.inflight_completions.pop_front();
    }

    // The serving bank set: every bank of the channel when striped.
    const std::uint64_t row = placement.row;
    const std::uint64_t region = placement.region;
    std::uint64_t start =
        std::max(earliest, serving_free_ps(t, ch.banks, placement.bank));
    start = avoid_refresh(start, t);

    // Per-access occupancy, adjusted by the row buffer / region switch.
    std::uint64_t per_access = req.op == Op::kRead ? t.read_occupancy_ps
                                                   : t.write_occupancy_ps;
    const BankState& lead = lead_bank(t, ch.banks, placement.bank);
    if (t.has_row_buffer && lead.open_row == row &&
        per_access > t.row_hit_saving_ps) {
      per_access -= t.row_hit_saving_ps;
    }
    std::uint64_t occupancy = per_access * accesses;
    if (t.region_size_bytes && lead.open_region != region) {
      occupancy += t.region_switch_ps;
    }

    const std::uint64_t busy_until = start + occupancy;
    // Data beats pipeline on the channel link (WDM/MDM links and DDR
    // buses are provisioned to match the banks' burst bandwidth), so the
    // burst contributes latency but never blocks another bank's access.
    const std::uint64_t transfer_end = busy_until + t.burst_ps * accesses;
    const std::uint64_t completion = transfer_end + t.interface_ps;
    // Off-latency-path restore/erase work keeps the bank busy longer.
    const std::uint64_t tail =
        (req.op == Op::kRead ? t.read_tail_ps : t.write_tail_ps) * accesses;
    const std::uint64_t bank_busy_until =
        std::max(transfer_end, busy_until + tail);

    // Commit state.
    const BankState committed{bank_busy_until, row, region};
    if (t.line_striped_across_banks) {
      std::fill(ch.banks.begin(), ch.banks.end(), committed);
    } else {
      ch.banks[static_cast<std::size_t>(placement.bank)] = committed;
    }
    ch.inflight_completions.push_back(completion);

    // Statistics (all channel-local: see ChannelState::lane).
    ReplaySlice& lane = ch.lane;
    SimStats& stats = lane.stats;
    const double latency_ns =
        static_cast<double>(completion - req.arrival_ps) * 1e-3;
    const double queue_ns =
        static_cast<double>(start - req.arrival_ps) * 1e-3;
    const double bits = static_cast<double>(req.size_bytes) * 8.0;
    lane.first_arrival_ps = lane.fed == 0
                                ? req.arrival_ps
                                : std::min(lane.first_arrival_ps,
                                           req.arrival_ps);
    ++lane.fed;
    stats.queue_delay_ns.add(queue_ns);
    stats.total_bank_busy_ns +=
        static_cast<double>(bank_busy_until - start) * 1e-3 *
        (t.line_striped_across_banks ? t.banks_per_channel : 1);
    if (req.op == Op::kRead) {
      ++stats.reads;
      stats.read_latency_ns.add(latency_ns);
      stats.dynamic_energy_pj += bits * model.energy.read_pj_per_bit;
    } else {
      ++stats.writes;
      stats.write_latency_ns.add(latency_ns);
      stats.dynamic_energy_pj += bits * model.energy.write_pj_per_bit;
    }
    stats.bytes_transferred += req.size_bytes;
    lane.last_completion_ps = std::max(lane.last_completion_ps, completion);
    // Per-tenant accumulation follows the same lane discipline: indexed
    // tenant-1, grown on demand, and only ever touched for tagged
    // requests, so untagged runs never allocate.
    if (req.tenant != 0) {
      if (stats.tenants.size() < req.tenant) stats.tenants.resize(req.tenant);
      TenantBreakdown& tenant = stats.tenants[req.tenant - 1u];
      if (req.op == Op::kRead) {
        ++tenant.reads;
      } else {
        ++tenant.writes;
      }
      tenant.bytes_transferred += req.size_bytes;
      tenant.latency_ns.add(latency_ns);
    }
    if (telemetry) {
      telemetry->record_request(
          placement.channel,
          telemetry::RequestEvent{.id = req.id,
                                  .arrival_ps = req.arrival_ps,
                                  .issue_ps = issue_ps,
                                  .start_ps = start,
                                  .completion_ps = completion,
                                  .bank_busy_until_ps = bank_busy_until,
                                  .size_bytes = req.size_bytes,
                                  .bank = static_cast<std::uint16_t>(
                                      placement.bank),
                                  .tenant = req.tenant,
                                  .op = req.op});
    }
    return completion;
  }

  ReplaySlice finish_slice() {
    finished = true;
    ReplaySlice merged;
    merged.stats.device_name = system.model_.name;
    merged.stats.workload_name = std::move(workload_name);
    for (const auto& ch : channels) merge_slice(merged, ch.lane);
    return merged;
  }
};

ReplaySession::ReplaySession(const MemorySystem& system,
                             std::string workload_name,
                             telemetry::Recorder* telemetry)
    : impl_(std::make_unique<Impl>(system, std::move(workload_name),
                                   telemetry)) {}

ReplaySession::ReplaySession(ReplaySession&&) noexcept = default;
ReplaySession& ReplaySession::operator=(ReplaySession&&) noexcept = default;
ReplaySession::~ReplaySession() = default;

void ReplaySession::feed(const Request& request) {
  if (impl_->finished) {
    throw std::logic_error("ReplaySession: feed() after finish()");
  }
  check_arrival_order(impl_->fed, impl_->prev_arrival, request.arrival_ps);
  // A sorted stream is per-channel sorted a fortiori; skip the check.
  impl_->feed(request, request.arrival_ps, false);
}

std::uint64_t ReplaySession::feed_issued(const Request& request,
                                         std::uint64_t issue_ps) {
  if (impl_->finished) {
    throw std::logic_error("ReplaySession: feed_issued() after finish()");
  }
  // Violations here are scheduler bugs, not malformed input traces.
  if (issue_ps < request.arrival_ps) {
    throw std::logic_error(
        "ReplaySession: request issued before its arrival");
  }
  return impl_->feed(request, issue_ps, true);
}

std::span<const BankState> ReplaySession::banks(int channel) const {
  return impl_->channels[static_cast<std::size_t>(channel)].banks;
}

SimStats ReplaySession::finish() {
  if (impl_->finished) {
    throw std::logic_error("ReplaySession: finish() called twice");
  }
  return finalize_slice(impl_->finish_slice(), impl_->system.model_);
}

ReplaySlice ReplaySession::finish_slice() {
  if (impl_->finished) {
    throw std::logic_error("ReplaySession: finish() called twice");
  }
  return impl_->finish_slice();
}

MemorySystem::MemorySystem(DeviceModel model) : model_(std::move(model)) {
  model_.validate();
}

SimStats MemorySystem::run(RequestSource& source,
                           const std::string& workload_name) const {
  ReplaySession session(*this, workload_name, telemetry_stage(model_.timing));
  pump(source, profiler(), [&](const Request& req) { session.feed(req); });
  return session.finish();
}

}  // namespace comet::memsim
