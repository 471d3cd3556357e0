#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

// Leaf POD vocabulary header (Op, Request): includes nothing, links
// nothing, so the link DAG stays telemetry <- memsim.
#include "memsim/request.hpp"  // comet-lint: allow(layering)
#include "util/metric.hpp"
#include "util/stats.hpp"

/// Run-scoped observability: per-request lifecycle events for Chrome
/// trace-event export and an epoch sampler turning a replay into a
/// time-series (bandwidth, queue occupancy, drain activity, interval
/// percentiles).
///
/// The recording model mirrors the engines' own lane discipline: one
/// Recorder per engine *stage* (a flat replay is one stage; a hybrid
/// run has a "dram" and a "backend" stage), holding one Lane per
/// channel. Every record lands in the lane of the serving channel, and
/// both the serial engines and the sharded per-channel workers only
/// ever touch the lane of the channel they serve — so lanes need no
/// locking (the LanePool join publishes them), and a traced sharded run
/// produces byte-identical telemetry to the serial run. Reading a
/// Recorder back (timeline(), the trace writer) always walks stages in
/// creation order and lanes in channel order, keeping every export
/// deterministic.
///
/// Cost discipline: engines hold a `telemetry::Collector*` that is
/// nullptr on untraced runs, so the hot replay path pays one
/// pointer-null branch per request and nothing else — the perf lane's
/// 15% gate keeps that honest.
namespace comet::telemetry {

/// An event budget with no cap (what a trace_limit of 0 asks for).
inline constexpr std::uint64_t kUnlimitedEvents =
    std::numeric_limits<std::uint64_t>::max();

/// What a run should record; the [telemetry] config section and the
/// --trace-out/--trace-limit/--metrics-interval/--metrics-csv flags
/// both build one of these.
struct TelemetrySpec {
  std::string trace_path;  ///< Non-empty: write Chrome trace JSON here.

  /// Cap on recorded request events per job, split over stages and
  /// channels (0 = unlimited). Requests past a lane's share are counted
  /// but not stored, and the trace carries an explicit truncation
  /// record. Only the job-wide 0 means unlimited: a stage or lane whose
  /// share of a positive cap rounds to 0 stores nothing.
  std::uint64_t trace_limit = 1'000'000;

  /// Epoch length of the metrics time-series; 0 disables sampling.
  std::uint64_t metrics_interval_ps = 0;

  std::string metrics_csv;  ///< Non-empty: also write the timeline CSV.

  bool tracing() const { return !trace_path.empty(); }
  bool sampling() const { return metrics_interval_ps > 0; }
  bool enabled() const { return tracing() || sampling(); }

  /// trace_limit as an event budget: kUnlimitedEvents for 0.
  std::uint64_t event_budget() const {
    return trace_limit == 0 ? kUnlimitedEvents : trace_limit;
  }

  /// Throws std::invalid_argument on a CSV path without a sampling
  /// interval (there would be no timeline to write).
  void validate() const;
  bool operator==(const TelemetrySpec&) const = default;
};

/// One request's full lifecycle, as the replay back-end resolved it:
/// arrival at the controller, issue to the device (== arrival for
/// unscheduled replay), service start after bank arbitration, data
/// completion, and how long the serving bank stays busy.
struct RequestEvent {
  std::uint64_t id = 0;
  std::uint64_t arrival_ps = 0;
  std::uint64_t issue_ps = 0;
  std::uint64_t start_ps = 0;
  std::uint64_t completion_ps = 0;
  std::uint64_t bank_busy_until_ps = 0;
  std::uint32_t size_bytes = 0;
  std::uint16_t bank = 0;
  std::uint16_t tenant = 0;  ///< 1-based tenant stream; 0 = untagged.
  memsim::Op op = memsim::Op::kRead;
};

/// Channel-level scheduler markers (instant events in the trace).
enum class MarkKind : std::uint8_t {
  kAdmitStall,  ///< An arrival found its bounded queue full.
  kDrainBegin,  ///< Write-drain hysteresis entered drain mode.
  kDrainEnd,    ///< Occupancy fell to the low watermark; drain over.
};

struct Mark {
  MarkKind kind = MarkKind::kAdmitStall;
  std::uint64_t at_ps = 0;
};

/// One epoch's accumulators for one channel. Requests are binned by
/// *completion* epoch — every served request lands in exactly one bin,
/// so the timeline's reads+writes always sum to the run's totals —
/// while queue-occupancy samples and scheduler markers bin at the
/// instant they were observed.
struct EpochAccum {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes = 0;
  double bank_busy_ns = 0.0;
  util::RunningStats latency_ns;  ///< Arrival-to-completion.
  util::RunningStats read_queue_occupancy;
  util::RunningStats write_queue_occupancy;
  std::uint64_t write_drains = 0;
  std::uint64_t drained_writes = 0;
  std::uint64_t admit_stalls = 0;

  void merge(const EpochAccum& other);
};

/// One channel's recordings inside one stage. Touched by exactly one
/// thread (the channel's lane worker, or the serial engine).
struct LaneTelemetry {
  std::vector<RequestEvent> events;
  std::vector<Mark> marks;
  std::uint64_t event_cap = 0;  ///< kUnlimitedEvents = no cap.
  std::uint64_t dropped_events = 0;
  std::uint64_t dropped_marks = 0;
  std::vector<std::uint64_t> bank_requests;  ///< Heatmap: per-bank totals.
  std::map<std::uint64_t, EpochAccum> epochs;
};

/// One merged point of the run's metrics time-series: the epoch's
/// accumulators with all stages and channels folded together, stage
/// order then channel order (the deterministic reduction).
struct TimelinePoint : EpochAccum {
  std::uint64_t epoch = 0;  ///< Absolute index: time_ps / interval_ps.
  std::uint64_t start_ps = 0;
  std::uint64_t end_ps = 0;
  /// Requests completed per channel this epoch, stages concatenated in
  /// creation order, channels in channel order within each stage.
  std::vector<std::uint64_t> channel_requests;
};

/// Member M of a point, and statistic F (mean, p99, ...) of its
/// RunningStats member M.
template <auto M>
constexpr auto point_field = [](const TimelinePoint& p) { return p.*M; };
template <auto M, auto F>
constexpr auto point_dist = [](const TimelinePoint& p) {
  return std::invoke(F, p.*M);
};

/// A point's numbers after its epoch index and bounds, in column order:
/// the JSON report's `timeline` objects and the timeline CSV both walk
/// this list.
inline constexpr util::Metric<TimelinePoint> kTimelineMetrics[] = {
    {"reads", point_field<&EpochAccum::reads>},
    {"writes", point_field<&EpochAccum::writes>},
    {"bytes", point_field<&EpochAccum::bytes>},
    // bytes / interval: B/ps scaled to GB/s (1 B/ps = 1000 GB/s).
    {"bandwidth_gbps",
     [](const TimelinePoint& p) {
       return static_cast<double>(p.bytes) * 1000.0 /
              static_cast<double>(p.end_ps - p.start_ps);
     }},
    {"avg_latency_ns",
     point_dist<&EpochAccum::latency_ns, &util::RunningStats::mean>},
    {"p50_latency_ns",
     point_dist<&EpochAccum::latency_ns, &util::RunningStats::p50>},
    {"p95_latency_ns",
     point_dist<&EpochAccum::latency_ns, &util::RunningStats::p95>},
    {"p99_latency_ns",
     point_dist<&EpochAccum::latency_ns, &util::RunningStats::p99>},
    {"avg_read_queue_occupancy",
     point_dist<&EpochAccum::read_queue_occupancy, &util::RunningStats::mean>},
    {"avg_write_queue_occupancy",
     point_dist<&EpochAccum::write_queue_occupancy, &util::RunningStats::mean>},
    {"write_drains", point_field<&EpochAccum::write_drains>},
    {"drained_writes", point_field<&EpochAccum::drained_writes>},
    {"admit_stalls", point_field<&EpochAccum::admit_stalls>},
    {"bank_busy_ns", point_field<&EpochAccum::bank_busy_ns>},
};

class Collector;

/// The recording surface one engine stage writes through. Channel-
/// partitioned and lock-free (see the file comment); all record_*
/// methods are O(1).
class Recorder {
 public:
  const std::string& stage() const { return name_; }
  int channels() const { return static_cast<int>(lanes_.size()); }
  int banks() const { return banks_; }

  void record_request(int channel, const RequestEvent& event);
  void record_queue_sample(int channel, std::uint64_t at_ps,
                           std::size_t reads_waiting,
                           std::size_t writes_waiting);
  void record_mark(int channel, MarkKind kind, std::uint64_t at_ps);
  void record_drained_write(int channel, std::uint64_t at_ps);

  const LaneTelemetry& lane(int channel) const {
    return lanes_[static_cast<std::size_t>(channel)];
  }
  std::uint64_t recorded_events() const;
  std::uint64_t dropped_events() const;  ///< Events + marks dropped.

 private:
  friend class Collector;
  Recorder(const TelemetrySpec& spec, std::string name, int channels,
           int banks, std::uint64_t event_budget, int busy_banks);

  std::string name_;
  int banks_ = 0;
  int busy_banks_ = 1;  ///< Banks one request occupies (see add_stage).
  bool trace_ = false;
  bool sample_ = false;
  std::uint64_t interval_ps_ = 0;
  std::vector<LaneTelemetry> lanes_;
};

/// Per-run (per sweep job) telemetry root: engines register their
/// stages at run() time and the driver reads the merged results back
/// after the run. Stage registration happens on the caller's thread
/// before any lane worker starts; reads happen after the run joins —
/// so the Collector itself needs no synchronization either.
class Collector {
 public:
  /// Validates the spec.
  explicit Collector(TelemetrySpec spec);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  const TelemetrySpec& spec() const { return spec_; }

  /// Registers one engine stage and returns its recording surface
  /// (owned by the Collector, valid for its lifetime). `event_budget`
  /// is this stage's share of the spec's event_budget()
  /// (kUnlimitedEvents = no cap), spread over the channels so the
  /// per-lane caps sum to it exactly; a lane whose cap is 0 stores no
  /// events but still counts its drops. `busy_banks` is how many banks
  /// one request occupies — every bank of the channel on a device whose
  /// lines stripe across banks — so the timeline's bank_busy_ns sums to
  /// the run's total_bank_busy_ns.
  Recorder* add_stage(std::string name, int channels, int banks,
                      std::uint64_t event_budget, int busy_banks);

  const std::vector<std::unique_ptr<Recorder>>& stages() const {
    return stages_;
  }

  /// Sum of channel counts over all stages (the width of every
  /// TimelinePoint::channel_requests vector).
  int total_channels() const;

  std::uint64_t recorded_events() const;
  std::uint64_t dropped_events() const;
  bool truncated() const { return dropped_events() > 0; }

  /// The merged metrics time-series, ascending by epoch; only epochs
  /// with at least one recording appear (the series is sparse over
  /// fully idle stretches). Empty when sampling was disabled.
  std::vector<TimelinePoint> timeline() const;

 private:
  TelemetrySpec spec_;
  std::vector<std::unique_ptr<Recorder>> stages_;
};

}  // namespace comet::telemetry
