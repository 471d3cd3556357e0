// Replay-throughput bench and the sharded-replay acceptance gate.
//
// One trace (gcc_like, seed 42) is materialized once, outside every
// timed region, so each phase times pure replay — no generator RNG in
// the loop. The flat COMET device replays it directly (always serial:
// flat direct replay does not shard), then serial and sharded replays
// of the same trace run for COMET behind the frfcfs controller (default
// queues) and for the hybrid-comet design point:
//
//   - bit-identity between serial and sharded stats is ALWAYS enforced
//     (any mismatch exits 1) — the same invariant tests/test_sharded.cpp
//     proves on small traces, re-checked here at bench scale;
//   - the >= 3x sharded-vs-serial speedup gate on the 8-channel
//     scheduled COMET engages only when the machine has >= 4 hardware
//     threads (a 1-2 vCPU runner cannot demonstrate parallel speedup,
//     but it can still prove correctness).
//
// Two source-only cells (source_gcc_like, source_mcf_like) then time
// GeneratorSource::next_batch alone, with no engine behind it: the
// producer's cost per request, Zipf-hot line sampling included.
//
// Every phase lands in BENCH_streaming.json (bench/bench_json.hpp
// schema); CI's perf lane diffs requests_per_s against the committed
// baseline via scripts/check_perf.py.
//
// Usage: bench_streaming [requests]   (default: 10,000,000)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "driver/registry.hpp"
#include "memsim/sharded.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/profiler.hpp"
#include "sched/controller.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

namespace {

namespace ms = comet::memsim;

struct Phase {
  std::string label;
  std::string device;  ///< Empty for a source-only phase.
  std::string workload;
  std::string policy;  ///< Empty for direct (unscheduled) replay.
  double seconds = 0.0;
  int threads = 1;
  ms::SimStats stats;
};

template <typename Fn>
Phase timed_phase(const std::string& label, int threads, Fn&& fn) {
  Phase phase;
  phase.label = label;
  phase.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  phase.stats = fn();
  phase.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  using comet::util::Table;

  std::size_t requests = 10'000'000;
  if (argc > 1) requests = static_cast<std::size_t>(std::atoll(argv[1]));
  constexpr std::uint32_t kLineBytes = 128;
  const auto profile = ms::profile_by_name("gcc_like");
  const int hw_threads = ms::resolve_run_threads(0);
  // Sharded phases always shard: on hosts with fewer than 4 hardware
  // threads the pool still runs 4 workers — proving bit-identity
  // through the real parallel path instead of silently degenerating to
  // a second serial replay — it just cannot demonstrate speedup, which
  // is why the >= 3x gate below stays keyed on hw_threads.
  const int shard_threads = std::max(hw_threads, 4);

  const auto flat = comet::driver::make_device_spec("comet");
  const auto hybrid = comet::driver::make_device_spec("hybrid-comet");

  std::cout << "materializing " << requests << " requests of " << profile.name
            << " (outside every timed region)...\n";
  const auto trace =
      ms::TraceGenerator(profile, 42).generate(requests, kLineBytes);
  std::cout << "replaying through " << flat.name << " / " << hybrid.name
            << ", serial vs sharded x" << shard_threads << " ("
            << hw_threads << " hardware thread(s))\n\n";

  // The sharded scheduled pair: frfcfs with the default bounded queues.
  comet::sched::ControllerConfig frfcfs;
  frfcfs.policy = comet::sched::Policy::kFrFcfs;

  std::vector<Phase> phases;
  const auto run =
      [&](const comet::driver::DeviceSpec& spec, const std::string& label,
          const std::optional<comet::sched::ControllerConfig>& controller,
          int threads) {
        phases.push_back(timed_phase(label, threads, [&] {
          return spec.make_engine(controller, threads)
              ->run(trace, profile.name);
        }));
        phases.back().device = spec.name;
        phases.back().workload = profile.name;
        if (controller) {
          phases.back().policy = comet::sched::policy_name(controller->policy);
        }
      };
  run(flat, "flat_serial", std::nullopt, 1);
  run(flat, "sched_serial", frfcfs, 1);
  run(flat, "sched_sharded", frfcfs, shard_threads);
  run(hybrid, "hybrid_serial", std::nullopt, 1);
  run(hybrid, "hybrid_sharded", std::nullopt, shard_threads);

  // Telemetry-on replay: the same serial flat run with full request
  // tracing (capped at 1M events) and a 1 µs epoch sampler attached.
  // A new, ungated cell — its req/s against flat_serial is the
  // recording overhead, and its stats must still be bit-identical.
  comet::telemetry::TelemetrySpec tspec;
  tspec.trace_path = "unused.json";
  tspec.trace_limit = 1'000'000;
  tspec.metrics_interval_ps = 1'000'000'000;
  comet::telemetry::Collector collector(tspec);
  phases.push_back(timed_phase("flat_serial_telemetry", 1, [&] {
    const auto engine = flat.make_engine(std::nullopt, 1);
    engine->attach_telemetry(&collector);
    return engine->run(trace, profile.name);
  }));
  phases.back().device = flat.name;
  phases.back().workload = profile.name;

  // Profiler-on replay (PR 10): the same serial flat run with the host
  // run profiler attached. Its req/s against flat_serial is the
  // profiling overhead — gated < 2% below, since the profiler reads
  // two steady-clock samples per 1024-request block and nothing per
  // request — and its stats must still be bit-identical.
  comet::prof::ProfSpec pspec;
  pspec.profile = true;
  comet::prof::Profiler profiler(pspec);
  phases.push_back(timed_phase("flat_serial_profiled", 1, [&] {
    const auto engine = flat.make_engine(std::nullopt, 1);
    engine->attach_profiler(&profiler);
    return engine->run(trace, profile.name);
  }));
  phases.back().device = flat.name;
  phases.back().workload = profile.name;

  // Source-only cells: the same request count synthesized block by
  // block into a reused buffer, nothing consuming it. gcc_like draws
  // Zipf-hot lines at s = 0.6 and mcf_like at s = 0.9. Each cell keeps
  // the fastest of three passes, so one descheduled pass does not read
  // as a regression.
  std::vector<ms::Request> block(1024);
  for (const std::string workload : {"gcc_like", "mcf_like"}) {
    Phase best;
    for (int pass = 0; pass < 3; ++pass) {
      Phase phase = timed_phase("source_" + workload, 1, [&] {
        ms::GeneratorSource source(ms::profile_by_name(workload), 42,
                                   requests, kLineBytes);
        while (source.next_batch(block.data(), block.size()) != 0) {
        }
        return ms::SimStats{};
      });
      if (pass == 0 || phase.seconds < best.seconds) best = std::move(phase);
    }
    best.workload = workload;
    phases.push_back(std::move(best));
  }

  Table table({"phase", "threads", "time (s)", "req/s", "BW (GB/s)",
               "EPB (pJ/bit)"});
  for (const auto& phase : phases) {
    const bool replayed = !phase.device.empty();
    table.add_row(
        {phase.label, std::to_string(phase.threads),
         Table::num(phase.seconds, 2),
         Table::num(double(requests) / phase.seconds, 0),
         replayed ? Table::num(phase.stats.bandwidth_gbps(), 2) : "-",
         replayed ? Table::num(phase.stats.epb_pj_per_bit(), 2) : "-"});
  }
  std::cout << "=== Serial vs sharded replay, and the source alone ===\n";
  table.print(std::cout);

  bool ok = true;
  // Serial-vs-sharded pairs: (sched_serial, sched_sharded) and
  // (hybrid_serial, hybrid_sharded) — the observer phases after index 4
  // are checked against flat_serial individually below.
  for (std::size_t i = 1; i + 1 < 5; i += 2) {
    const bool match = phases[i].stats == phases[i + 1].stats;
    std::cout << "\n" << phases[i].label << " vs " << phases[i + 1].label
              << ": " << (match ? "bit-identical" : "MISMATCH");
    ok = ok && match;
  }
  // Observation must not perturb: the instrumented replays reproduce
  // the uninstrumented stats exactly.
  for (const std::size_t observed : {std::size_t{5}, std::size_t{6}}) {
    const bool match = phases[0].stats == phases[observed].stats;
    std::cout << "\nflat_serial vs " << phases[observed].label << ": "
              << (match ? "bit-identical" : "MISMATCH");
    ok = ok && match;
  }
  std::cout << "\n";
  std::cout << "telemetry-on overhead: "
            << Table::num(
                   (phases[5].seconds / phases[0].seconds - 1.0) * 100.0, 1)
            << "% serial (" << collector.recorded_events() << " events, "
            << collector.timeline().size() << " epochs recorded)\n";

  const double prof_overhead =
      (phases[6].seconds / phases[0].seconds - 1.0) * 100.0;
  std::cout << "profiler-on overhead: " << Table::num(prof_overhead, 1)
            << "% serial (" << profiler.stages().size()
            << " stages recorded)\n";
  // The overhead gate engages only at bench scale: on tiny smoke runs
  // (CI uses ~100k requests) the two serial replays finish in
  // milliseconds and scheduler noise swamps the comparison.
  if (requests >= 1'000'000) {
    if (prof_overhead >= 2.0) {
      std::cout << "FAIL: expected < 2% profiler overhead on flat_serial\n";
      ok = false;
    }
  } else {
    std::cout << "(profiler overhead gate skipped: needs >= 1M requests)\n";
  }

  const double speedup = phases[1].seconds / phases[2].seconds;
  std::cout << "scheduled sharded speedup: " << Table::num(speedup, 2)
            << "x on " << hw_threads << " hardware threads\n";
  if (hw_threads >= 4) {
    if (speedup < 3.0) {
      std::cout << "FAIL: expected >= 3x sharded speedup with >= 4 hardware "
                   "threads\n";
      ok = false;
    }
  } else {
    std::cout << "(speedup gate skipped: needs >= 4 hardware threads)\n";
  }

  std::ofstream json("BENCH_streaming.json");
  if (json) {
    namespace cb = comet::bench;
    std::vector<cb::BenchResult> results;
    for (const auto& phase : phases) {
      cb::BenchResult r;
      r.name = phase.label;
      r.requests = requests;
      r.wall_s = phase.seconds;
      r.requests_per_s = double(requests) / phase.seconds;
      if (!phase.device.empty()) {
        r.config.emplace_back("device", cb::json_str(phase.device));
      }
      r.config.emplace_back("workload", cb::json_str(phase.workload));
      r.config.emplace_back("run_threads", std::to_string(phase.threads));
      r.config.emplace_back("hw_threads", std::to_string(hw_threads));
      r.config.emplace_back("line_bytes", std::to_string(kLineBytes));
      r.config.emplace_back("seed", "42");
      if (!phase.policy.empty()) {
        r.config.emplace_back("policy", cb::json_str(phase.policy));
      }
      results.push_back(std::move(r));
    }
    cb::write_bench_json(json, "bench_streaming", results);
    std::cout << "wrote BENCH_streaming.json (" << results.size()
              << " phases)\n";
  }
  return ok ? 0 : 1;
}
