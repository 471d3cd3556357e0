// Sharded per-channel parallel replay tests. The load-bearing gate is
// bit-identity: for every registry device (flat and hybrid), every
// controller option (none, fcfs, frfcfs, read-first with bounded
// queues, so admit stalls and write drains actually fire) and thread
// counts {1, 2, 8}, the sharded engines must reproduce the serial
// result field for field — exact ==, no tolerances, on every counter,
// every latency distribution moment and every energy sum — and the
// per-channel controller lanes must reproduce one sched::Controller
// driven over the whole stream. Plus the LanePool mechanics: inline
// mode, worker-error propagation, and the run_threads resolution rules.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/device_spec.hpp"
#include "driver/registry.hpp"
#include "memsim/sharded.hpp"
#include "memsim/system.hpp"
#include "memsim/trace_gen.hpp"
#include "sched/controller.hpp"
#include "sim_stats_equal.hpp"

namespace ms = comet::memsim;
namespace sc = comet::sched;
namespace dr = comet::driver;
using comet::test_support::expect_identical;

namespace {

/// A shared demand trace: the mixed profile exercises bursts, Zipf-hot
/// jumps and both ops, so transaction queues, drains and both latency
/// distributions all see traffic.
const std::vector<ms::Request>& shared_trace() {
  static const std::vector<ms::Request> trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 7).generate(2500,
                                                                      64);
  return trace;
}

/// The controller axis under test: no controller, plus every policy
/// with tightly bounded queues (depth 8) so backpressure paths —
/// admit stalls, write-drain hysteresis — execute, not just the happy
/// path.
std::vector<std::optional<sc::ControllerConfig>> controller_axis() {
  std::vector<std::optional<sc::ControllerConfig>> axis;
  axis.push_back(std::nullopt);
  for (const auto& info : sc::known_policies()) {
    axis.push_back(sc::ControllerConfig::with_depths(info.policy, 8, 8));
  }
  return axis;
}

std::string axis_name(const std::optional<sc::ControllerConfig>& controller) {
  return controller ? sc::policy_name(controller->policy) : "none";
}

ms::SimStats run_spec(const dr::DeviceSpec& spec,
                      const std::optional<sc::ControllerConfig>& controller,
                      int threads) {
  const auto engine = spec.make_engine(controller, threads);
  return engine->run(shared_trace(), "gcc_like");
}

void expect_sharded_matches_serial(const std::string& token) {
  const dr::DeviceSpec spec = dr::make_device_spec(token);
  for (const auto& controller : controller_axis()) {
    const ms::SimStats serial = run_spec(spec, controller, 1);
    for (const int threads : {1, 2, 8}) {
      const ms::SimStats sharded = run_spec(spec, controller, threads);
      expect_identical(serial, sharded,
                       token + "/" + axis_name(controller) + "/t" +
                           std::to_string(threads));
    }
  }
}

}  // namespace

// ------------------------------------------------ bit-identity matrix

TEST(ShardedBitIdentity, EveryFlatRegistryDeviceEveryPolicyEveryThreadCount) {
  for (const auto& token : dr::known_devices()) {
    expect_sharded_matches_serial(token);
  }
}

TEST(ShardedBitIdentity, EveryHybridRegistryDeviceEveryPolicyEveryThreadCount) {
  for (const auto& token : dr::known_hybrid_devices()) {
    expect_sharded_matches_serial(token);
  }
}

TEST(ShardedBitIdentity, ScheduledSystemMatchesOneControllerOverTheStream) {
  // The reference is one sched::Controller spanning every channel, fed
  // the whole stream in arrival order: ScheduledSystem's per-channel
  // lanes must reproduce it at any thread count, inline included.
  for (const auto& token : dr::known_devices()) {
    const ms::DeviceModel model = dr::make_device(token);
    const ms::MemorySystem system(model);
    for (const auto& info : sc::known_policies()) {
      const auto config = sc::ControllerConfig::with_depths(info.policy, 8, 8);
      sc::Controller controller(system, config, "gcc_like");
      for (const ms::Request& request : shared_trace()) {
        controller.feed(request);
      }
      const ms::SimStats reference =
          ms::finalize_slice(controller.finish_slice(), model);
      for (const int threads : {1, 2, 8}) {
        const sc::ScheduledSystem scheduled(model, config, threads);
        expect_identical(reference, scheduled.run(shared_trace(), "gcc_like"),
                         token + "/" + info.name + "/t" +
                             std::to_string(threads));
      }
    }
  }
}

// --------------------------------------------------------- contracts

TEST(ShardedContract, UnsortedStreamThrowsWithSerialDiagnostics) {
  // memsim::pump checks every engine's stream: scheduled, flat, and
  // hybrid both direct and behind a backend controller, inline and on
  // a worker pool.
  const std::vector<ms::Request> requests = {
      ms::Request{.id = 0, .arrival_ps = 100, .op = ms::Op::kRead,
                  .address = 0, .size_bytes = 64},
      ms::Request{.id = 1, .arrival_ps = 50, .op = ms::Op::kRead,
                  .address = 4096, .size_bytes = 64},
  };
  const auto frfcfs =
      sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8);
  const std::vector<std::pair<std::string, std::optional<sc::ControllerConfig>>>
      engines = {{"comet", frfcfs},
                 {"comet", std::nullopt},
                 {"hybrid-comet", std::nullopt},
                 {"hybrid-comet", frfcfs}};
  for (const auto& [token, controller] : engines) {
    for (const int threads : {1, 2}) {
      const std::string label = token + "/" + axis_name(controller) + "/t" +
                                std::to_string(threads);
      const auto engine =
          dr::make_device_spec(token).make_engine(controller, threads);
      try {
        engine->run(requests, "unsorted");
        ADD_FAILURE() << label << ": expected std::invalid_argument";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("index 1"), std::string::npos)
            << label << ": " << e.what();
      }
    }
  }
}

TEST(ShardedContract, ResolveRunThreads) {
  EXPECT_EQ(ms::resolve_run_threads(1), 1);
  EXPECT_EQ(ms::resolve_run_threads(7), 7);
  EXPECT_GE(ms::resolve_run_threads(0), 1);  // hardware concurrency
  EXPECT_THROW(ms::resolve_run_threads(-1), std::invalid_argument);
}

TEST(ShardedContract, RunShardedRejectsLaneCountMismatch) {
  const ms::MemorySystem system(dr::make_device("comet"));  // 8 channels
  std::vector<ms::LaneTier> tiers;
  tiers.push_back(ms::LaneTier{system, {}});
  tiers.back().lanes.push_back(
      std::make_unique<ms::ReplaySession>(system, "w"));
  ms::VectorSource source(shared_trace());
  EXPECT_THROW(ms::run_sharded(std::move(tiers), 2, source, nullptr, "",
                               [](const ms::Request& request, auto& emit) {
                                 emit(0, request);
                               }),
               std::invalid_argument);
}

// ------------------------------------------------------ lane pool

namespace {

/// Lane that fails deterministically partway through its stream.
class ThrowingLane final : public ms::ShardLane {
 public:
  explicit ThrowingLane(std::uint64_t boom_at) : boom_at_(boom_at) {}
  void feed(const ms::Request&) override {
    if (++fed_ == boom_at_) throw std::runtime_error("lane boom");
  }
  ms::ReplaySlice finish_slice() override { return {}; }

 private:
  std::uint64_t boom_at_;
  std::uint64_t fed_ = 0;
};

}  // namespace

TEST(LanePool, WorkerExceptionReachesTheProducer) {
  for (const int threads : {1, 2}) {
    ms::LanePool pool(
        [] {
          std::vector<std::unique_ptr<ms::ShardLane>> lanes;
          lanes.push_back(std::make_unique<ThrowingLane>(100));
          lanes.push_back(std::make_unique<ThrowingLane>(1u << 30));
          return lanes;
        }(),
        threads);
    const auto drive = [&] {
      ms::Request req;
      req.size_bytes = 64;
      // Far more than the failure point, so the error surfaces either
      // during feed (bounded queues backpressure the producer) or at
      // the latest from finish().
      for (int i = 0; i < 200000; ++i) pool.feed(i % 2, req);
      pool.finish();
    };
    EXPECT_THROW(drive(), std::runtime_error) << "threads=" << threads;
  }
}

TEST(LanePool, RejectsEmptyLaneSet) {
  EXPECT_THROW(ms::LanePool({}, 2), std::invalid_argument);
}
