// Telemetry subsystem tests. Two load-bearing gates:
//
//  1. Observation must not perturb the experiment: for every registry
//     device (flat and hybrid), every controller option and run_threads
//     {1, 8}, a fully-instrumented run must reproduce the untraced
//     SimStats field for field — exact ==, no tolerances.
//  2. Recording must be deterministic: serial and sharded replays of
//     the same job must produce byte-identical telemetry (every lane's
//     events, marks, heatmap and epoch accumulators), so a trace is a
//     stable artifact whatever thread count produced it.
//
// Plus the reconciliation invariants (timeline sums == run totals),
// the truncation-cap mechanics, and TelemetrySpec validation.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/device_spec.hpp"
#include "driver/registry.hpp"
#include "memsim/system.hpp"
#include "memsim/trace_gen.hpp"
#include "sched/controller.hpp"
#include "sim_stats_equal.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace ms = comet::memsim;
namespace sc = comet::sched;
namespace cu = comet::util;
namespace dr = comet::driver;
namespace tl = comet::telemetry;
using comet::test_support::expect_identical;

namespace {

/// The shared demand trace: mixed profile, so bursts, Zipf-hot jumps
/// and both ops exercise queues, drains and the epoch sampler.
const std::vector<ms::Request>& shared_trace() {
  static const std::vector<ms::Request> trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 7).generate(2500,
                                                                      64);
  return trace;
}

/// No controller, plus every policy with bounded queues (depth 8) so
/// admit stalls and write-drain hysteresis actually fire.
std::vector<std::optional<sc::ControllerConfig>> controller_axis() {
  std::vector<std::optional<sc::ControllerConfig>> axis;
  axis.push_back(std::nullopt);
  for (const auto policy :
       {sc::Policy::kFcfs, sc::Policy::kFrFcfs, sc::Policy::kReadFirst}) {
    axis.push_back(sc::ControllerConfig::with_depths(policy, 8, 8));
  }
  return axis;
}

std::string axis_name(const std::optional<sc::ControllerConfig>& controller) {
  return controller ? sc::policy_name(controller->policy) : "none";
}

/// A spec that exercises both recording modes: full request tracing
/// and a 5 µs epoch sampler (the shared trace spans tens of µs, so the
/// timeline gets multiple epochs).
tl::TelemetrySpec full_spec() {
  tl::TelemetrySpec spec;
  spec.trace_path = "unused.json";  // Only tracing() matters in-process.
  spec.trace_limit = 0;             // Unlimited.
  spec.metrics_interval_ps = 5'000'000;
  return spec;
}

/// Runs one job with an attached collector (null = untraced).
ms::SimStats run_device(const dr::DeviceSpec& spec,
                        const std::optional<sc::ControllerConfig>& controller,
                        int threads, tl::Collector* collector) {
  const auto engine = spec.make_engine(controller, threads);
  if (collector != nullptr) engine->attach_telemetry(collector);
  return engine->run(shared_trace(), "gcc_like");
}

void expect_same_moments(const cu::RunningStats& x, const cu::RunningStats& y,
                         const std::string& label) {
  EXPECT_EQ(x.count(), y.count()) << label;
  EXPECT_EQ(x.mean(), y.mean()) << label;
  EXPECT_EQ(x.sum(), y.sum()) << label;
  EXPECT_EQ(x.min(), y.min()) << label;
  EXPECT_EQ(x.max(), y.max()) << label;
  EXPECT_EQ(x.p50(), y.p50()) << label;
  EXPECT_EQ(x.p95(), y.p95()) << label;
  EXPECT_EQ(x.p99(), y.p99()) << label;
}

/// Byte-for-byte telemetry comparison: every stage, lane, event, mark,
/// heatmap cell and epoch accumulator.
void expect_same_telemetry(const tl::Collector& a, const tl::Collector& b,
                           const std::string& label) {
  ASSERT_EQ(a.stages().size(), b.stages().size()) << label;
  for (std::size_t s = 0; s < a.stages().size(); ++s) {
    const tl::Recorder& ra = *a.stages()[s];
    const tl::Recorder& rb = *b.stages()[s];
    const std::string at = label + "/stage " + ra.stage();
    ASSERT_EQ(ra.stage(), rb.stage()) << at;
    ASSERT_EQ(ra.channels(), rb.channels()) << at;
    ASSERT_EQ(ra.banks(), rb.banks()) << at;
    for (int c = 0; c < ra.channels(); ++c) {
      const tl::LaneTelemetry& la = ra.lane(c);
      const tl::LaneTelemetry& lb = rb.lane(c);
      const std::string lane = at + "/ch" + std::to_string(c);
      EXPECT_EQ(la.bank_requests, lb.bank_requests) << lane;
      EXPECT_EQ(la.dropped_events, lb.dropped_events) << lane;
      EXPECT_EQ(la.dropped_marks, lb.dropped_marks) << lane;
      ASSERT_EQ(la.events.size(), lb.events.size()) << lane;
      for (std::size_t i = 0; i < la.events.size(); ++i) {
        const tl::RequestEvent& ea = la.events[i];
        const tl::RequestEvent& eb = lb.events[i];
        const std::string ev = lane + "/event " + std::to_string(i);
        EXPECT_EQ(ea.id, eb.id) << ev;
        EXPECT_EQ(ea.arrival_ps, eb.arrival_ps) << ev;
        EXPECT_EQ(ea.issue_ps, eb.issue_ps) << ev;
        EXPECT_EQ(ea.start_ps, eb.start_ps) << ev;
        EXPECT_EQ(ea.completion_ps, eb.completion_ps) << ev;
        EXPECT_EQ(ea.bank_busy_until_ps, eb.bank_busy_until_ps) << ev;
        EXPECT_EQ(ea.size_bytes, eb.size_bytes) << ev;
        EXPECT_EQ(ea.bank, eb.bank) << ev;
        EXPECT_EQ(ea.op, eb.op) << ev;
      }
      ASSERT_EQ(la.marks.size(), lb.marks.size()) << lane;
      for (std::size_t i = 0; i < la.marks.size(); ++i) {
        EXPECT_EQ(la.marks[i].kind, lb.marks[i].kind) << lane << " mark " << i;
        EXPECT_EQ(la.marks[i].at_ps, lb.marks[i].at_ps) << lane << " mark "
                                                        << i;
      }
      ASSERT_EQ(la.epochs.size(), lb.epochs.size()) << lane;
      auto ita = la.epochs.begin();
      auto itb = lb.epochs.begin();
      for (; ita != la.epochs.end(); ++ita, ++itb) {
        const std::string ep = lane + "/epoch " + std::to_string(ita->first);
        EXPECT_EQ(ita->first, itb->first) << ep;
        EXPECT_EQ(ita->second.reads, itb->second.reads) << ep;
        EXPECT_EQ(ita->second.writes, itb->second.writes) << ep;
        EXPECT_EQ(ita->second.bytes, itb->second.bytes) << ep;
        EXPECT_EQ(ita->second.bank_busy_ns, itb->second.bank_busy_ns) << ep;
        expect_same_moments(ita->second.latency_ns, itb->second.latency_ns,
                            ep + " latency");
        expect_same_moments(ita->second.read_queue_occupancy,
                            itb->second.read_queue_occupancy, ep + " rd-occ");
        expect_same_moments(ita->second.write_queue_occupancy,
                            itb->second.write_queue_occupancy, ep + " wr-occ");
        EXPECT_EQ(ita->second.write_drains, itb->second.write_drains) << ep;
        EXPECT_EQ(ita->second.drained_writes, itb->second.drained_writes)
            << ep;
        EXPECT_EQ(ita->second.admit_stalls, itb->second.admit_stalls) << ep;
      }
    }
  }
}

std::vector<std::string> all_device_tokens() {
  std::vector<std::string> tokens = dr::known_devices();
  for (const auto& token : dr::known_hybrid_devices()) tokens.push_back(token);
  return tokens;
}

}  // namespace

// ------------------------------------------------------ spec contract

TEST(TelemetrySpec, CsvWithoutIntervalThrows) {
  tl::TelemetrySpec spec;
  spec.metrics_csv = "out.csv";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.metrics_interval_ps = 1'000'000;
  EXPECT_NO_THROW(spec.validate());
  EXPECT_NO_THROW(tl::TelemetrySpec{}.validate());
}

TEST(TelemetrySpec, EnabledFollowsTracingAndSampling) {
  tl::TelemetrySpec spec;
  EXPECT_FALSE(spec.enabled());
  spec.trace_path = "t.json";
  EXPECT_TRUE(spec.tracing());
  EXPECT_TRUE(spec.enabled());
  spec.trace_path.clear();
  spec.metrics_interval_ps = 5;
  EXPECT_TRUE(spec.sampling());
  EXPECT_TRUE(spec.enabled());
}

// ------------------------------------- observation does not perturb

TEST(TelemetryBitIdentity, TracedRunMatchesUntracedEveryDeviceEveryPolicy) {
  for (const auto& token : all_device_tokens()) {
    const dr::DeviceSpec spec = dr::make_device_spec(token);
    for (const auto& controller : controller_axis()) {
      for (const int threads : {1, 8}) {
        const std::string label = token + "/" + axis_name(controller) + "/t" +
                                  std::to_string(threads);
        const ms::SimStats plain =
            run_device(spec, controller, threads, nullptr);
        tl::Collector collector(full_spec());
        const ms::SimStats traced =
            run_device(spec, controller, threads, &collector);
        expect_identical(plain, traced, label);
        EXPECT_GT(collector.recorded_events(), 0u) << label;
      }
    }
  }
}

// ------------------------------------------ recording is deterministic

TEST(TelemetryBitIdentity, SerialAndShardedRunsRecordIdenticalTelemetry) {
  for (const auto& token : all_device_tokens()) {
    const dr::DeviceSpec spec = dr::make_device_spec(token);
    for (const auto& controller : controller_axis()) {
      tl::Collector serial(full_spec());
      run_device(spec, controller, 1, &serial);
      for (const int threads : {2, 8}) {
        tl::Collector sharded(full_spec());
        run_device(spec, controller, threads, &sharded);
        expect_same_telemetry(serial, sharded,
                              token + "/" + axis_name(controller) + "/t" +
                                  std::to_string(threads));
      }
    }
  }
}

// ------------------------------------------------------ reconciliation

TEST(TelemetryTimeline, EpochSumsReconcileWithSimStats) {
  // Flat devices only: their single stage sees every request exactly
  // once, so the timeline's totals must equal the run's. (A hybrid
  // run's stages see cache traffic and backend traffic respectively —
  // a different, per-stage invariant.)
  for (const auto& token : dr::known_devices()) {
    const dr::DeviceSpec spec = dr::make_device_spec(token);
    for (const auto& controller : controller_axis()) {
      const std::string label = token + "/" + axis_name(controller);
      tl::Collector collector(full_spec());
      const ms::SimStats stats = run_device(spec, controller, 1, &collector);
      const auto timeline = collector.timeline();
      ASSERT_FALSE(timeline.empty()) << label;
      std::uint64_t reads = 0, writes = 0, bytes = 0;
      std::uint64_t drains = 0, drained = 0, stalls = 0;
      for (const auto& point : timeline) {
        reads += point.reads;
        writes += point.writes;
        bytes += point.bytes;
        drains += point.write_drains;
        drained += point.drained_writes;
        stalls += point.admit_stalls;
        std::uint64_t channel_sum = 0;
        ASSERT_EQ(point.channel_requests.size(),
                  static_cast<std::size_t>(collector.total_channels()))
            << label;
        for (const auto count : point.channel_requests) channel_sum += count;
        EXPECT_EQ(channel_sum, point.reads + point.writes) << label;
      }
      EXPECT_EQ(reads, stats.reads) << label;
      EXPECT_EQ(writes, stats.writes) << label;
      EXPECT_EQ(bytes, stats.bytes_transferred) << label;
      EXPECT_EQ(drains, stats.write_drains) << label;
      EXPECT_EQ(drained, stats.drained_writes) << label;
      EXPECT_EQ(stalls, stats.admit_stalls) << label;
    }
  }
}

TEST(TelemetryTimeline, BankBusyReconcilesOnStripedDevices) {
  // A striped device occupies every bank of the channel per request,
  // and the run's total_bank_busy_ns counts each of them, so the
  // timeline's bank_busy_ns must too. No built-in device stripes:
  // stripe COMET's lines, with the unstriped original as the control.
  for (const bool striped : {false, true}) {
    ms::DeviceModel model = dr::make_device("comet");
    model.timing.line_striped_across_banks = striped;
    ms::MemorySystem system(model);
    tl::TelemetrySpec spec;
    spec.metrics_interval_ps = 1'000'000;
    tl::Collector collector(spec);
    system.attach_telemetry(&collector);
    const ms::SimStats stats = system.run(shared_trace(), "gcc_like");
    double busy_ns = 0.0;
    for (const auto& point : collector.timeline()) {
      busy_ns += point.bank_busy_ns;
    }
    ASSERT_GT(stats.total_bank_busy_ns, 0.0);
    EXPECT_NEAR(busy_ns / stats.total_bank_busy_ns, 1.0, 1e-9)
        << (striped ? "striped" : "unstriped");
  }
}

TEST(TelemetryTimeline, BoundedReadFirstRecordsDrainActivity) {
  // Read-first with an aggressive low watermark pair drains on this
  // trace; the timeline must carry that activity (not just zeros).
  auto config = sc::ControllerConfig::with_depths(sc::Policy::kReadFirst, 8, 8);
  config.drain_high_watermark = 2;
  config.drain_low_watermark = 0;
  tl::Collector collector(full_spec());
  const ms::SimStats stats =
      run_device(dr::make_device_spec("comet"), config, 1, &collector);
  ASSERT_GT(stats.write_drains, 0u);
  std::uint64_t drains = 0;
  for (const auto& point : collector.timeline()) drains += point.write_drains;
  EXPECT_EQ(drains, stats.write_drains);
}

TEST(TelemetryTimeline, EmptyWithoutSampling) {
  tl::TelemetrySpec spec;
  spec.trace_path = "t.json";  // Tracing only.
  tl::Collector collector(spec);
  run_device(dr::make_device_spec("comet"), std::nullopt, 1, &collector);
  EXPECT_GT(collector.recorded_events(), 0u);
  EXPECT_TRUE(collector.timeline().empty());
}

TEST(TelemetryExport, ChromeTraceEscapesControlCharactersInLabels) {
  // Run labels carry user file names (a trace file is its workload
  // name); a tab in one must not make the trace invalid JSON.
  tl::TelemetrySpec spec;
  spec.trace_path = "t.json";
  tl::Collector collector(spec);
  run_device(dr::make_device_spec("comet"), std::nullopt, 1, &collector);
  std::ostringstream os;
  tl::write_chrome_trace(os, {{"t\tab\"q\x1f", &collector}});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\": \"t\\u0009ab\\\"q\\u001f channel 0\""),
            std::string::npos)
      << json.substr(0, 400);
  for (const char c : json) {
    if (c != '\n') {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20);
    }
  }
}

TEST(TelemetryTimeline, HybridRunsRecordPerTierStages) {
  const std::string token = dr::known_hybrid_devices().front();
  tl::Collector collector(full_spec());
  run_device(dr::make_device_spec(token), std::nullopt, 1, &collector);
  ASSERT_EQ(collector.stages().size(), 2u);
  EXPECT_EQ(collector.stages()[0]->stage(), "dram");
  EXPECT_EQ(collector.stages()[1]->stage(), "backend");
  EXPECT_GT(collector.stages()[0]->recorded_events(), 0u);
  const auto timeline = collector.timeline();
  ASSERT_FALSE(timeline.empty());
  for (const auto& point : timeline) {
    EXPECT_EQ(point.channel_requests.size(),
              static_cast<std::size_t>(collector.total_channels()));
  }
}

// --------------------------------------------------------- truncation

TEST(TelemetryTruncation, EventCapsAreHonoredAndDropsCounted) {
  // A cap of 4 leaves half of COMET's 8 lanes a share of 0, and a cap of
  // 1 leaves the hybrid DRAM stage none: such lanes store nothing (only
  // a trace_limit of 0 means unlimited) but still count their drops.
  const std::vector<std::pair<std::string, std::uint64_t>> inputs = {
      {"comet", 64}, {"comet", 4}, {"hybrid-comet", 1}};
  for (const auto& [token, limit] : inputs) {
    const std::string label = token + "@" + std::to_string(limit);
    tl::TelemetrySpec spec;
    spec.trace_path = "t.json";
    spec.trace_limit = limit;
    tl::Collector collector(spec);
    const dr::DeviceSpec device = dr::make_device_spec(token);
    const ms::SimStats stats = run_device(device, std::nullopt, 1, &collector);
    EXPECT_LE(collector.recorded_events(), limit) << label;
    EXPECT_GT(collector.dropped_events(), 0u) << label;
    EXPECT_TRUE(collector.truncated()) << label;
    // Nothing is lost from the accounting: stored + dropped covers every
    // request the run served, and the heatmap counts them all regardless
    // of the trace cap. A hybrid run's tiers also serve the fills and
    // writebacks the demand stream caused.
    std::uint64_t stored = 0, dropped = 0, heatmap = 0;
    for (const auto& stage : collector.stages()) {
      for (int c = 0; c < stage->channels(); ++c) {
        const tl::LaneTelemetry& lane = stage->lane(c);
        EXPECT_LE(lane.events.size(), lane.event_cap) << label;
        stored += lane.events.size();
        dropped += lane.dropped_events;
        for (const auto count : lane.bank_requests) heatmap += count;
      }
    }
    EXPECT_EQ(stored + dropped, heatmap) << label;
    if (!device.tiered) {
      EXPECT_EQ(heatmap, stats.reads + stats.writes) << label;
    }
  }
}

TEST(TelemetryTruncation, LaneCapsSumToStageBudget) {
  tl::Collector collector(full_spec());
  const tl::Recorder* recorder = collector.add_stage("", 3, 4, 100, 1);
  std::uint64_t total = 0;
  for (int c = 0; c < recorder->channels(); ++c) {
    total += recorder->lane(c).event_cap;
  }
  EXPECT_EQ(total, 100u);
}

TEST(TelemetryTruncation, ZeroLimitMeansUnlimited) {
  tl::TelemetrySpec spec;
  spec.trace_path = "t.json";
  spec.trace_limit = 0;
  tl::Collector collector(spec);
  const ms::SimStats stats = run_device(dr::make_device_spec("comet"),
                                        std::nullopt, 1, &collector);
  EXPECT_EQ(collector.recorded_events(), stats.reads + stats.writes);
  EXPECT_FALSE(collector.truncated());
}

// --------------------------------------------------- recorder contract

TEST(TelemetryRecorder, RejectsNonPositiveGeometry) {
  tl::Collector collector(full_spec());
  EXPECT_THROW(collector.add_stage("", 0, 4, 0, 1), std::invalid_argument);
  EXPECT_THROW(collector.add_stage("", 4, 0, 0, 1), std::invalid_argument);
}

TEST(TelemetryRecorder, MarksBinIntoEpochCounters) {
  tl::TelemetrySpec spec;
  spec.metrics_interval_ps = 1'000;
  tl::Collector collector(spec);
  tl::Recorder* recorder = collector.add_stage("", 1, 2, 0, 1);
  recorder->record_mark(0, tl::MarkKind::kAdmitStall, 500);
  recorder->record_mark(0, tl::MarkKind::kDrainBegin, 1'500);
  recorder->record_mark(0, tl::MarkKind::kDrainEnd, 1'700);
  recorder->record_drained_write(0, 1'600);
  const auto timeline = collector.timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].epoch, 0u);
  EXPECT_EQ(timeline[0].admit_stalls, 1u);
  EXPECT_EQ(timeline[1].epoch, 1u);
  EXPECT_EQ(timeline[1].write_drains, 1u);
  EXPECT_EQ(timeline[1].drained_writes, 1u);
}
