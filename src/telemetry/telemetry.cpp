#include "telemetry/telemetry.hpp"

#include <stdexcept>
#include <utility>

namespace comet::telemetry {

void TelemetrySpec::validate() const {
  if (!metrics_csv.empty() && metrics_interval_ps == 0) {
    throw std::invalid_argument(
        "telemetry: metrics_csv requires a metrics interval (there is no "
        "timeline to write without one)");
  }
}

void EpochAccum::merge(const EpochAccum& other) {
  reads += other.reads;
  writes += other.writes;
  bytes += other.bytes;
  bank_busy_ns += other.bank_busy_ns;
  latency_ns.merge(other.latency_ns);
  read_queue_occupancy.merge(other.read_queue_occupancy);
  write_queue_occupancy.merge(other.write_queue_occupancy);
  write_drains += other.write_drains;
  drained_writes += other.drained_writes;
  admit_stalls += other.admit_stalls;
}

Recorder::Recorder(const TelemetrySpec& spec, std::string name, int channels,
                   int banks, std::uint64_t event_budget, int busy_banks)
    : name_(std::move(name)),
      banks_(banks),
      busy_banks_(busy_banks),
      trace_(spec.tracing()),
      sample_(spec.sampling()),
      interval_ps_(spec.metrics_interval_ps) {
  if (channels <= 0 || banks <= 0) {
    throw std::invalid_argument(
        "telemetry::Recorder: channels and banks must be >= 1");
  }
  lanes_.resize(static_cast<std::size_t>(channels));
  // Spread the stage budget over the lanes so the per-lane caps sum to
  // it exactly (the first budget % channels lanes take the remainder).
  const auto n = static_cast<std::uint64_t>(channels);
  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    LaneTelemetry& lane = lanes_[c];
    lane.bank_requests.assign(static_cast<std::size_t>(banks), 0);
    if (trace_) {
      lane.event_cap = event_budget == kUnlimitedEvents
                           ? kUnlimitedEvents
                           : event_budget / n + (c < event_budget % n ? 1 : 0);
    }
  }
}

void Recorder::record_request(int channel, const RequestEvent& event) {
  LaneTelemetry& lane = lanes_[static_cast<std::size_t>(channel)];
  lane.bank_requests[event.bank] += 1;
  if (trace_) {
    if (lane.events.size() < lane.event_cap) {
      lane.events.push_back(event);
    } else {
      ++lane.dropped_events;
    }
  }
  if (sample_) {
    EpochAccum& epoch = lane.epochs[event.completion_ps / interval_ps_];
    if (event.op == memsim::Op::kRead) {
      ++epoch.reads;
    } else {
      ++epoch.writes;
    }
    epoch.bytes += event.size_bytes;
    epoch.bank_busy_ns +=
        static_cast<double>(event.bank_busy_until_ps - event.start_ps) * 1e-3 *
        busy_banks_;
    epoch.latency_ns.add(
        static_cast<double>(event.completion_ps - event.arrival_ps) * 1e-3);
  }
}

void Recorder::record_queue_sample(int channel, std::uint64_t at_ps,
                                   std::size_t reads_waiting,
                                   std::size_t writes_waiting) {
  if (!sample_) return;
  LaneTelemetry& lane = lanes_[static_cast<std::size_t>(channel)];
  EpochAccum& epoch = lane.epochs[at_ps / interval_ps_];
  epoch.read_queue_occupancy.add(static_cast<double>(reads_waiting));
  epoch.write_queue_occupancy.add(static_cast<double>(writes_waiting));
}

void Recorder::record_mark(int channel, MarkKind kind, std::uint64_t at_ps) {
  LaneTelemetry& lane = lanes_[static_cast<std::size_t>(channel)];
  if (trace_) {
    if (lane.marks.size() < lane.event_cap) {
      lane.marks.push_back(Mark{kind, at_ps});
    } else {
      ++lane.dropped_marks;
    }
  }
  if (sample_) {
    EpochAccum& epoch = lane.epochs[at_ps / interval_ps_];
    if (kind == MarkKind::kAdmitStall) ++epoch.admit_stalls;
    if (kind == MarkKind::kDrainBegin) ++epoch.write_drains;
  }
}

void Recorder::record_drained_write(int channel, std::uint64_t at_ps) {
  if (!sample_) return;
  LaneTelemetry& lane = lanes_[static_cast<std::size_t>(channel)];
  ++lane.epochs[at_ps / interval_ps_].drained_writes;
}

std::uint64_t Recorder::recorded_events() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane.events.size();
  return total;
}

std::uint64_t Recorder::dropped_events() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane.dropped_events + lane.dropped_marks;
  }
  return total;
}

Collector::Collector(TelemetrySpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

Collector::~Collector() = default;

Recorder* Collector::add_stage(std::string name, int channels, int banks,
                               std::uint64_t event_budget, int busy_banks) {
  stages_.push_back(std::unique_ptr<Recorder>(new Recorder(
      spec_, std::move(name), channels, banks, event_budget, busy_banks)));
  return stages_.back().get();
}

int Collector::total_channels() const {
  int total = 0;
  for (const auto& stage : stages_) total += stage->channels();
  return total;
}

std::uint64_t Collector::recorded_events() const {
  std::uint64_t total = 0;
  for (const auto& stage : stages_) total += stage->recorded_events();
  return total;
}

std::uint64_t Collector::dropped_events() const {
  std::uint64_t total = 0;
  for (const auto& stage : stages_) total += stage->dropped_events();
  return total;
}

std::vector<TimelinePoint> Collector::timeline() const {
  std::vector<TimelinePoint> points;
  if (!spec_.sampling()) return points;
  const std::uint64_t interval = spec_.metrics_interval_ps;
  const auto width = static_cast<std::size_t>(total_channels());

  // Fold every lane's epoch map into one ordered series, stages in
  // creation order and channels in channel order — the exact reduction
  // whatever thread count produced the lanes.
  std::map<std::uint64_t, EpochAccum> merged;
  std::map<std::uint64_t, std::vector<std::uint64_t>> per_channel;
  std::size_t channel_base = 0;
  for (const auto& stage : stages_) {
    for (int c = 0; c < stage->channels(); ++c) {
      for (const auto& [epoch, accum] : stage->lane(c).epochs) {
        merged[epoch].merge(accum);
        auto& row = per_channel[epoch];
        if (row.empty()) row.assign(width, 0);
        row[channel_base + static_cast<std::size_t>(c)] +=
            accum.reads + accum.writes;
      }
    }
    channel_base += static_cast<std::size_t>(stage->channels());
  }

  points.reserve(merged.size());
  for (auto& [epoch, accum] : merged) {
    points.push_back({std::move(accum), epoch, epoch * interval,
                      (epoch + 1) * interval, per_channel.at(epoch)});
  }
  return points;
}

}  // namespace comet::telemetry
