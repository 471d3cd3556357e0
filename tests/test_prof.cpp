// Host-side observability tests (src/prof + the SLO side of
// config/metrics). The load-bearing gate mirrors test_sharded.cpp:
// attaching a Profiler must never change the simulated statistics —
// exact ==, every field, for every registry device (flat and hybrid),
// scheduled and direct, at thread counts {1, 2, 8}. Around it: the SLO
// grammar (parse errors, round-trip printing), the metric tables
// (every row a report key with the gated value, aliases equal to their
// keys), degenerate runs (zero and single-request sweeps with profiling
// and heartbeat on, empty-stats gating without division blowups) and
// the heartbeat thread's lifecycle including an unknown (0) request
// total.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/metrics.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/sweep.hpp"
#include "memsim/sharded.hpp"
#include "memsim/stats.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/heartbeat.hpp"
#include "prof/profiler.hpp"
#include "prof/slo.hpp"
#include "sched/controller.hpp"
#include "sim_stats_equal.hpp"

namespace cf = comet::config;
namespace ms = comet::memsim;
namespace pf = comet::prof;
namespace dr = comet::driver;
namespace sc = comet::sched;
using comet::test_support::expect_identical;

namespace {

pf::ProfSpec profiling_spec() {
  pf::ProfSpec spec;
  spec.profile = true;
  return spec;
}

const std::vector<ms::Request>& shared_trace() {
  static const std::vector<ms::Request> trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 7).generate(2000,
                                                                      64);
  return trace;
}

ms::SimStats run_spec(const dr::DeviceSpec& spec,
                      const std::optional<sc::ControllerConfig>& controller,
                      int threads, pf::Profiler* profiler) {
  const auto engine = spec.make_engine(controller, threads);
  if (profiler) engine->attach_profiler(profiler);
  return engine->run(shared_trace(), "gcc_like");
}

}  // namespace

// ----------------------------------------------------- SLO grammar

TEST(SloParse, AcceptsEveryOperatorAndScientificThresholds) {
  const auto slo = cf::parse_slo(
      " p99_read_ns <= 2500 , requests_per_s>=5e6, hit_rate>0.5,"
      "max_slowdown<3.0,wall_s==1.25e-1 ");
  ASSERT_EQ(slo.size(), 5u);
  EXPECT_EQ(slo[0].metric, "p99_read_ns");
  EXPECT_EQ(slo[0].op, pf::SloPredicate::Op::kLe);
  EXPECT_EQ(slo[0].threshold, 2500.0);
  EXPECT_EQ(slo[1].op, pf::SloPredicate::Op::kGe);
  EXPECT_EQ(slo[1].threshold, 5e6);
  EXPECT_EQ(slo[2].op, pf::SloPredicate::Op::kGt);
  EXPECT_EQ(slo[3].op, pf::SloPredicate::Op::kLt);
  EXPECT_EQ(slo[4].op, pf::SloPredicate::Op::kEq);
  EXPECT_EQ(slo[4].threshold, 0.125);
}

TEST(SloParse, RejectsMalformedPredicates) {
  EXPECT_THROW(cf::parse_slo("bogus_metric<=1"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns<="), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns<=abc"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns<=1e"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns<=nan"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("<=1"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("a<=1,,b>=2"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns<=1,"), std::invalid_argument);
  // Thresholds are plain decimals: no hex, hex-float, inf or nan.
  EXPECT_THROW(cf::parse_slo("p99_read_ns<=0x10"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns<=0x1p20"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns<=-0X1A"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns<=inf"), std::invalid_argument);
  EXPECT_THROW(cf::parse_slo("p99_read_ns<=1e999"), std::invalid_argument);
}

TEST(SloParse, EmptyListMeansNoGating) {
  EXPECT_TRUE(cf::parse_slo("").empty());
}

TEST(SloParse, ToStringRoundTripsThroughTheParser) {
  const std::string text =
      "p99_read_ns<=2500,requests_per_s>=5e6,max_slowdown<3,hit_rate>0.55";
  const auto first = cf::parse_slo(text);
  const auto second = cf::parse_slo(pf::slo_to_string(first));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].metric, second[i].metric);
    EXPECT_EQ(first[i].op, second[i].op);
    EXPECT_EQ(first[i].threshold, second[i].threshold);
  }
  // Integral thresholds print as integers, not scientific notation.
  EXPECT_EQ(first[0].to_string(), "p99_read_ns<=2500");
}

// ---------------------------------- metric tables and SLO names

namespace {

/// Every gateable SLO path, from the metric tables.
std::vector<std::string> table_paths() {
  std::vector<std::string> paths;
  for (const cf::MetricBlock* block : cf::kRecordMetrics) {
    for (const auto& row : block->rows) {
      paths.push_back(cf::metric_path(*block, row));
    }
  }
  return paths;
}

/// A record where every block is measured: hybrid, scheduled and
/// multi-tenant, with distinct nonzero values in every field.
ms::SimStats live_stats() {
  ms::SimStats stats;
  stats.reads = 300;
  stats.writes = 100;
  stats.bytes_transferred = 400 * 64;
  stats.span_ps = 123'456'789;
  for (int i = 1; i <= 40; ++i) {
    stats.read_latency_ns.add(10.0 * i + 0.25);
    stats.write_latency_ns.add(30.0 * i + 0.5);
    stats.queue_delay_ns.add(1.5 * i);
    stats.sched_queue_delay_ns.add(0.75 * i);
    stats.service_latency_ns.add(20.0 * i);
    stats.read_queue_occupancy.add(i % 7);
    stats.write_queue_occupancy.add(i % 11);
  }
  stats.dynamic_energy_pj = 1.25e6;
  stats.background_energy_pj = 3.5e5;
  stats.hybrid = true;
  stats.cache_hits = 250;
  stats.cache_misses = 150;
  stats.writebacks = 17;
  stats.dram_tier_energy_pj = 4.5e5;
  stats.backend_tier_energy_pj = 1.15e6;
  stats.scheduled = true;
  stats.sched_policy = "frfcfs";
  stats.write_drains = 5;
  stats.drained_writes = 44;
  stats.drain_stalls = 3;
  stats.admit_stalls = 9;
  stats.tenants.resize(2);
  stats.tenants[0].name = "a";
  stats.tenants[0].reads = 200;
  stats.tenants[0].latency_ns.add(80.0);
  stats.tenants[0].alone_avg_latency_ns = 40.0;
  stats.tenants[0].slowdown = 2.0;
  stats.tenants[1].name = "b";
  stats.tenants[1].writes = 100;
  stats.tenants[1].latency_ns.add(45.0);
  stats.tenants[1].alone_avg_latency_ns = 30.0;
  stats.tenants[1].slowdown = 1.5;
  stats.max_slowdown = 2.0;
  stats.fairness_index = 0.96;
  return stats;
}

/// The number following `"key": ` inside the JSON object that starts
/// at `from` (naive scan; the report's keys are unique per object).
double json_number_after(const std::string& json, std::size_t from,
                         const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ", from);
  if (at == std::string::npos) return std::nan("");
  return std::stod(json.substr(at + key.size() + 4));
}

}  // namespace

TEST(SloEval, EveryRegistryMetricHasAnEvaluatorMapping) {
  // A record where every block is live: every table row (and every
  // legacy alias) must parse and evaluate as applicable — a row whose
  // block predicate can never hold, or an alias pointing nowhere, fails.
  const ms::SimStats stats = live_stats();
  std::vector<std::string> names = table_paths();
  for (const auto& alias : cf::kMetricAliases) names.push_back(alias.name);
  for (const auto& name : names) {
    const auto slo = cf::parse_slo(name + "<=1e300");
    const auto outcomes = cf::evaluate_slo(slo, stats, /*wall_s=*/1.0);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].applicable) << name;
    EXPECT_TRUE(outcomes[0].pass) << name;
  }
}

TEST(SloEval, EmptyStatsNeverDivideByZero) {
  // Degenerate gating: zero requests, zero wall clock. Every metric
  // must produce a finite value (or be skipped), never NaN/inf.
  const ms::SimStats stats;
  for (const auto& name : table_paths()) {
    const auto slo = cf::parse_slo(name + ">=0");
    const auto outcomes = cf::evaluate_slo(slo, stats, /*wall_s=*/0.0);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(std::isfinite(outcomes[0].value)) << name;
    if (outcomes[0].applicable) {
      EXPECT_TRUE(outcomes[0].pass) << name;
    }
  }
}

TEST(SloEval, EveryTableRowIsAReportKeyWithTheGatedValue) {
  // One live record through write_json: each row's key appears in its
  // block's JSON object, printed with the value evaluate_slo gates on.
  dr::SweepJob job;
  job.device = dr::make_device_spec("hybrid-comet");
  job.profile = ms::profile_by_name("gcc_like");
  job.controller =
      sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8);
  job.profile_spec = profiling_spec();
  std::vector<std::unique_ptr<pf::Profiler>> profilers;
  profilers.push_back(std::make_unique<pf::Profiler>(job.profile_spec));
  const double wall_s = 0.5;
  const ms::SimStats stats = live_stats();
  profilers[0]->set_wall_seconds(wall_s);

  std::ostringstream os;
  dr::write_json(os, {job}, {stats}, nullptr, &profilers);
  const std::string json = os.str();

  for (const cf::MetricBlock* block : cf::kRecordMetrics) {
    const std::string prefix = block->block;
    const std::size_t from =
        prefix.empty() ? 0 : json.find("\"" + prefix + "\": {");
    ASSERT_NE(from, std::string::npos) << prefix;
    for (const auto& row : block->rows) {
      const std::string path = cf::metric_path(*block, row);
      const auto outcomes =
          cf::evaluate_slo(cf::parse_slo(path + ">=0"), stats, wall_s);
      ASSERT_TRUE(outcomes[0].applicable) << path;
      EXPECT_EQ(json_number_after(json, from, row.key), outcomes[0].value)
          << path;
    }
  }
  // Per-tenant streams print every stream row, in order.
  std::size_t from = json.find("\"streams\": [");
  for (const auto& tenant : stats.tenants) {
    from = json.find("{\"name\": \"" + tenant.name + "\"", from);
    ASSERT_NE(from, std::string::npos) << tenant.name;
    for (const auto& row : cf::rows::stream) {
      EXPECT_EQ(json_number_after(json, from, row.key), row.value(tenant))
          << tenant.name << " " << row.key;
    }
  }
}

TEST(SloEval, LegacyAliasesMatchTheirReportKeys) {
  // Each alias is its report key under another name: same verdict on
  // a live record, on an empty one, and with the host clock off.
  const ms::SimStats live = live_stats();
  const ms::SimStats empty;
  for (const auto& alias : cf::kMetricAliases) {
    for (const auto* stats : {&live, &empty}) {
      for (const double wall_s : {0.0, 2.0}) {
        for (const char* op : {"<=", ">="}) {
          const auto threshold = std::string(op) + "1.5";
          const auto legacy = cf::evaluate_slo(
              cf::parse_slo(alias.name + threshold), *stats, wall_s);
          const auto keyed = cf::evaluate_slo(
              cf::parse_slo(alias.value + threshold), *stats, wall_s);
          EXPECT_EQ(legacy[0].applicable, keyed[0].applicable) << alias.name;
          EXPECT_EQ(legacy[0].value, keyed[0].value) << alias.name;
          EXPECT_EQ(legacy[0].pass, keyed[0].pass) << alias.name;
        }
      }
    }
  }
}

TEST(SloEval, InapplicableMetricsAreSkippedNotViolated) {
  // Flat single-stream record: hit_rate / max_slowdown / fairness and
  // the host metrics (wall_s == 0, unprofiled) must all skip — an
  // impossible threshold stays green because it was never measured.
  const ms::SimStats stats;
  const auto slo = cf::parse_slo(
      "hit_rate>=1,max_slowdown<=0,fairness_index>=1,"
      "requests_per_s>=1e12,wall_s<=0");
  const auto outcomes = cf::evaluate_slo(slo, stats, /*wall_s=*/0.0);
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.applicable) << outcome.predicate.metric;
    EXPECT_TRUE(outcome.pass) << outcome.predicate.metric;
  }
  EXPECT_FALSE(cf::slo_violated(outcomes));
}

TEST(SloEval, ViolationIsDetectedAndNamed) {
  ms::SimStats stats;
  stats.reads = 100;
  stats.read_latency_ns.add(5000.0);
  const auto slo = cf::parse_slo("p99_read_ns<=1,avg_queue_delay_ns>=0");
  const auto outcomes = cf::evaluate_slo(slo, stats, /*wall_s=*/0.5);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].pass);
  EXPECT_TRUE(outcomes[1].pass);
  EXPECT_TRUE(cf::slo_violated(outcomes));
  EXPECT_EQ(outcomes[0].predicate.to_string(), "p99_read_ns<=1");
}

// -------------------------------------------------- ProfSpec basics

TEST(ProfSpec, EnabledIsTheUnionOfTheThreeLegs) {
  pf::ProfSpec spec;
  EXPECT_FALSE(spec.enabled());
  spec.profile = true;
  EXPECT_TRUE(spec.profiling());
  EXPECT_TRUE(spec.enabled());
  spec = pf::ProfSpec{};
  spec.progress_ms = 250;
  EXPECT_TRUE(spec.heartbeat());
  EXPECT_TRUE(spec.enabled());
  spec = pf::ProfSpec{};
  spec.slo = cf::parse_slo("wall_s<=60");
  EXPECT_TRUE(spec.gating());
  EXPECT_TRUE(spec.enabled());
}

TEST(Profiler, RequestsPerSecondGuardsDegenerateRuns) {
  // host.requests_per_s, the one host throughput of the report and the
  // console, reads 0 on a zero-time run instead of dividing by zero.
  const auto& row = *std::ranges::find_if(cf::rows::host, [](const auto& r) {
    return std::string(r.key) == "requests_per_s";
  });
  ms::SimStats stats;
  EXPECT_EQ(row.value(cf::RunRecord{stats, 0.0}), 0.0);
  EXPECT_EQ(row.value(cf::RunRecord{stats, 2.0}), 0.0);
  stats.reads = 600;
  stats.writes = 400;
  EXPECT_EQ(row.value(cf::RunRecord{stats, 0.0}), 0.0);
  EXPECT_EQ(row.value(cf::RunRecord{stats, 2.0}), 500.0);
}

// ------------------------------------------------- degenerate sweeps

TEST(DegenerateRuns, ZeroAndSingleRequestAcrossEngineShapes) {
  // Every engine shape (flat direct, scheduled inline, scheduled on a
  // worker pool, hybrid) at 0 and 1 requests with profiling AND
  // heartbeat enabled: no hangs, no division blowups, and the simulated
  // counts still add up.
  pf::ProfSpec spec = profiling_spec();
  spec.progress_ms = 1;

  struct Shape {
    const char* token;
    std::optional<sc::ControllerConfig> controller;
    int run_threads;
  };
  const Shape shapes[] = {
      {"comet", std::nullopt, 1},
      {"comet", sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8),
       1},
      {"comet", sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8),
       4},
      {"hybrid-comet", std::nullopt, 1},
  };
  for (const Shape& shape : shapes) {
    for (const std::size_t requests : {std::size_t{0}, std::size_t{1}}) {
      dr::SweepJob job;
      job.device = dr::make_device_spec(shape.token);
      job.profile = ms::profile_by_name("gcc_like");
      job.requests = requests;
      job.run_threads = shape.run_threads;
      job.controller = shape.controller;
      job.profile_spec = spec;

      pf::Profiler profiler(spec);
      std::ostringstream sink;
      std::vector<const pf::Profiler*> watched{&profiler};
      pf::Heartbeat heartbeat(sink, spec.progress_ms, watched, requests);
      const ms::SimStats stats = dr::run_job(job, nullptr, &profiler);
      heartbeat.stop();

      const std::string label = std::string(shape.token) + "/rt" +
                                std::to_string(shape.run_threads) + "/n" +
                                std::to_string(requests);
      EXPECT_EQ(stats.reads + stats.writes, requests) << label;
      EXPECT_EQ(profiler.progress(), requests) << label;
      EXPECT_GE(profiler.wall_seconds(), 0.0) << label;

      // Gating an empty/near-empty record must not divide by zero.
      const auto outcomes =
          cf::evaluate_slo(cf::parse_slo("requests_per_s>=0,wall_s>=0"),
                           stats, profiler.wall_seconds());
      for (const auto& outcome : outcomes) {
        EXPECT_TRUE(std::isfinite(outcome.value)) << label;
      }
    }
  }
}

// ----------------------------------------------------- heartbeat

TEST(Heartbeat, UnknownTotalPrintsCountsWithoutEta) {
  pf::Profiler profiler(profiling_spec());
  profiler.add_progress(1234);
  std::ostringstream out;
  {
    pf::Heartbeat heartbeat(out, 1, {&profiler}, /*total_requests=*/0);
    heartbeat.stop();
    heartbeat.stop();  // Idempotent.
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("req"), std::string::npos);
  EXPECT_EQ(text.find("ETA"), std::string::npos);
  EXPECT_EQ(text.find('%'), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Heartbeat, KnownTotalReportsPercentAndSurvivesZeroProgress) {
  pf::Profiler profiler(profiling_spec());
  std::ostringstream out;
  {
    pf::Heartbeat heartbeat(out, 1, {&profiler}, /*total_requests=*/1000);
  }  // Destructor stops; zero progress must not divide by zero.
  EXPECT_NE(out.str().find('%'), std::string::npos);
}

TEST(Heartbeat, SumsProgressAcrossProfilers) {
  pf::Profiler a(profiling_spec());
  pf::Profiler b(profiling_spec());
  a.add_progress(600);
  b.add_progress(400);
  std::ostringstream out;
  pf::Heartbeat heartbeat(out, 1, {&a, &b}, 1000);
  heartbeat.stop();
  EXPECT_NE(out.str().find("100.0%"), std::string::npos) << out.str();
}

// ------------------------------------- profiled-vs-unprofiled gate

TEST(ProfiledBitIdentity, EveryFlatRegistryDeviceEveryThreadCount) {
  for (const auto& token : dr::known_devices()) {
    const dr::DeviceSpec spec = dr::make_device_spec(token);
    const ms::SimStats plain = run_spec(spec, std::nullopt, 1, nullptr);
    for (const int threads : {1, 2, 8}) {
      pf::Profiler profiler(profiling_spec());
      expect_identical(plain, run_spec(spec, std::nullopt, threads, &profiler),
                       token + "/t" + std::to_string(threads));
      EXPECT_EQ(profiler.progress(), shared_trace().size()) << token;
    }
  }
}

TEST(ProfiledBitIdentity, EveryHybridRegistryDeviceEveryThreadCount) {
  for (const auto& token : dr::known_hybrid_devices()) {
    const dr::DeviceSpec spec = dr::make_device_spec(token);
    const ms::SimStats plain = run_spec(spec, std::nullopt, 1, nullptr);
    for (const int threads : {1, 2, 8}) {
      pf::Profiler profiler(profiling_spec());
      expect_identical(plain, run_spec(spec, std::nullopt, threads, &profiler),
                       token + "/t" + std::to_string(threads));
    }
  }
}

TEST(ProfiledBitIdentity, ScheduledEnginesMatchWithProfilingOn) {
  const dr::DeviceSpec spec = dr::make_device_spec("comet");
  const auto controller =
      sc::ControllerConfig::with_depths(sc::Policy::kReadFirst, 8, 8);
  const ms::SimStats plain = run_spec(spec, controller, 1, nullptr);
  for (const int threads : {1, 2, 8}) {
    pf::Profiler profiler(profiling_spec());
    expect_identical(plain, run_spec(spec, controller, threads, &profiler),
                     "sched/t" + std::to_string(threads));
  }
}

TEST(ProfiledBitIdentity, PoolProfileAccountsForEveryRequest) {
  // Scheduled COMET: the flat engine that still shards across a
  // threaded LanePool (flat direct replay is always serial).
  const dr::DeviceSpec spec = dr::make_device_spec("comet");
  pf::Profiler profiler(profiling_spec());
  run_spec(spec, sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8),
           4, &profiler);
  ASSERT_EQ(profiler.pools().size(), 1u);
  const pf::PoolProfile& pool = *profiler.pools()[0];
  EXPECT_EQ(pool.threads, 4);
  std::uint64_t lane_requests = 0;
  for (const auto& lane : pool.lanes) lane_requests += lane.requests;
  EXPECT_EQ(lane_requests, shared_trace().size());
  EXPECT_EQ(pool.blocks_allocated + pool.blocks_recycled, pool.blocks_pushed);
  const double utilization = pool.utilization();
  EXPECT_GE(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
}
