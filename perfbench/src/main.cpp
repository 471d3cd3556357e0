// comet_perfbench — host-time benchmark of the COMET simulator.
//
//   comet_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --workloads-dir DIR [--scale X]
//
// Runs the workload's experiment document (DIR/NAME.toml) through the
// simulator's driver path for S seconds and prints, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones (see perfbench/README.md). Every pass is checked;
// failed checks count as failed operations and clear "correct".

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"

namespace {

using perfbench::Clock;
using perfbench::median;
using perfbench::RunResult;
using perfbench::seconds_since;

const std::vector<std::string> kWorkloads = {"fig9-sweep", "sched-writes",
                                             "tenants-hybrid", "observed-flat"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workloads_dir;
  double scale = 1.0;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "comet_perfbench: " << message
            << "\nusage: comet_perfbench --workload NAME --seed N --seconds S"
               " --trace 0|1 --workloads-dir DIR [--scale X]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage_error("bad argument '" + key + "'");
    }
    values[key.substr(2)] = argv[i + 1];
  }
  try {
    for (const auto& [key, value] : values) {
      if (key == "workload") args.workload = value;
      else if (key == "seed") args.seed = std::stoull(value);
      else if (key == "seconds") args.seconds = std::stod(value);
      else if (key == "trace") args.trace = std::stoi(value) != 0;
      else if (key == "workloads-dir") args.workloads_dir = value;
      else if (key == "scale") args.scale = std::stod(value);
      else usage_error("unknown option --" + key);
    }
  } catch (const std::logic_error&) {
    usage_error("malformed option value");
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) ==
      kWorkloads.end()) {
    usage_error("unknown workload '" + args.workload + "'");
  }
  if (args.workloads_dir.empty()) usage_error("--workloads-dir is required");
  if (!(args.seconds > 0.0) || !(args.scale > 0.0)) {
    usage_error("--seconds and --scale must be positive");
  }
  return args;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Untraced pass wall times: the median and the highest percentile with
/// at least ten passes beyond it.
void print_pass_walls(std::vector<double> walls) {
  std::sort(walls.begin(), walls.end());
  const std::size_t n = walls.size();
  std::printf("pass wall time: median %.4g s", median(walls));
  if (n > 10) {
    std::printf(", p%.0f %.4g s", 100.0 * static_cast<double>(n - 10) / n,
                walls[n - 11]);
  }
  std::printf(" (%zu passes)\n", n);
}

/// Means over the run's jobs of the simulated headline numbers.
void print_simulated(const RunResult& run, std::uint64_t digest) {
  double bw = 0.0;
  double epb = 0.0;
  double p99 = 0.0;
  for (const auto& stats : run.stats) {
    bw += stats.bandwidth_gbps();
    epb += stats.epb_pj_per_bit();
    p99 += stats.read_latency_ns.p99();
  }
  const double n = static_cast<double>(run.stats.size());
  std::printf("simulated digest: %016" PRIx64 " (%zu jobs)\n", digest,
              run.stats.size());
  std::printf(
      "simulated, not gated: bandwidth %.6g GB/s, EPB %.6g pJ/bit, "
      "p99 read latency %.6g ns (means over jobs)\n",
      bw / n, epb / n, p99 / n);
}

/// Fig. 9: COMET's gains over three baselines next to the paper's.
void print_paper_gap(const RunResult& run) {
  std::map<std::string, std::pair<double, double>> sums;  // bw, epb
  std::map<std::string, int> counts;
  for (const auto& stats : run.stats) {
    sums[stats.device_name].first += stats.bandwidth_gbps();
    sums[stats.device_name].second += stats.epb_pj_per_bit();
    ++counts[stats.device_name];
  }
  const auto mean = [&](const std::string& device) {
    const auto& [bw, epb] = sums.at(device);
    const double n = counts.at(device);
    return std::make_pair(bw / n, epb / n);
  };
  if (!sums.count("COMET-4b")) return;
  struct PaperGain {
    const char* device;
    double bw;
    double epb;  ///< 0: the paper reports the baseline ahead (<1x).
  };
  const PaperGain paper[] = {
      {"2D_DDR3", 100.3, 4.1}, {"EPCM-MM", 40.6, 0.0}, {"COSMOS", 5.1, 12.9}};
  const auto comet = mean("COMET-4b");
  std::printf(
      "paper gap (COMET gain over baseline, model vs paper; the model is "
      "otherwise unvalidated):\n");
  for (const auto& gain : paper) {
    if (!sums.count(gain.device)) continue;
    const auto base = mean(gain.device);
    const double bw = comet.first / base.first;
    const double epb = base.second / comet.second;
    std::printf("  %-8s BW %8.2fx vs %6.1fx (ratio %.3f)", gain.device, bw,
                gain.bw, bw / gain.bw);
    if (gain.epb > 0.0) {
      std::printf("  EPB %7.2fx vs %5.1fx (ratio %.3f)\n", epb, gain.epb,
                  epb / gain.epb);
    } else {
      std::printf("  EPB %7.2fx vs <1x\n", epb);
    }
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const perfbench::CheckTally& tally,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Per-layer cells from the traced passes' job timings.
struct TraceSample {
  double source_ns = 0, source_share = 0, replay_ns = 0, replay_share = 0;
  double baseline_share = 0, pool_busy = 0, job_p50 = 0, job_max = 0;
};

TraceSample summarize_trace(const RunResult& run) {
  double source_s = 0, engine_s = 0, baseline_s = 0, jobs_s = 0;
  std::uint64_t pulled = 0;
  std::vector<double> job_s;
  for (const auto& trace : run.traces) {
    for (std::size_t c = 0; c < trace.calls.size(); ++c) {
      source_s += trace.calls[c].source_s;
      engine_s += trace.calls[c].run_s;
      pulled += trace.calls[c].pulled;
      if (c > 0) baseline_s += trace.calls[c].run_s;
    }
    jobs_s += trace.wall_s;
    job_s.push_back(trace.wall_s);
  }
  const double per_req = 1e9 / static_cast<double>(pulled);
  TraceSample s;
  s.source_ns = source_s * per_req;
  s.source_share = source_s / jobs_s;
  s.replay_ns = (engine_s - source_s) * per_req;
  s.replay_share = (engine_s - source_s) / jobs_s;
  s.baseline_share = baseline_s / jobs_s;
  s.pool_busy = jobs_s / (run.threads * run.pool_s);
  s.job_p50 = median(job_s);
  s.job_max = *std::max_element(job_s.begin(), job_s.end());
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  perfbench::Workload workload;
  workload.name = args.workload;
  workload.spec_path =
      (std::filesystem::path(args.workloads_dir) / (args.workload + ".toml"))
          .string();
  workload.seed = args.seed;
  workload.scale = args.scale;
  // Sweep workers, like `comet_sim --threads`: at most 4, one process.
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  try {
    perfbench::CheckTally tally;
    perfbench::CpuRotation cpus;

    // Set-up, repeated on each CPU in turn: the cold first pass is one
    // sample among many.
    const double setup_budget_s = std::max(0.2, 0.05 * args.seconds);
    std::vector<std::vector<double>> setup_s(cpus.size());
    std::vector<double> parse_s;
    const auto setup_start = Clock::now();
    while (parse_s.size() < 5 ||
           (parse_s.size() < 1001 &&
            seconds_since(setup_start) < setup_budget_s)) {
      const std::size_t i = parse_s.size();
      cpus.pin(i);
      const auto sample = perfbench::time_setup(workload);
      setup_s[i % cpus.size()].push_back(sample.total_s);
      parse_s.push_back(sample.parse_s);
    }
    cpus.release();

    const auto spec = perfbench::load_spec(workload);
    const auto matrix = comet::driver::build_matrix(spec);
    perfbench::ProbeResults probes;
    if (args.trace) {
      probes = perfbench::run_probes(
          matrix, static_cast<std::uint64_t>(200000 * args.scale) + 1, 3);
    }
    // A pass of one unsharded job runs on one thread: rotate it over the
    // CPUs like the set-ups. Wider passes spread over the CPUs already.
    const bool one_thread =
        matrix.size() == 1 && matrix.front().run_threads == 1;
    std::vector<std::vector<double>> rates(one_thread ? cpus.size() : 1);

    // Measured passes: untraced only, or untraced and traced in turn.
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    std::vector<double> report_s;
    std::vector<TraceSample> samples;
    std::optional<std::uint64_t> reference;
    RunResult last;
    const auto measure_start = Clock::now();
    const std::size_t min_passes = args.trace ? 1 : 3;
    while (untraced_wall.size() < min_passes ||
           seconds_since(measure_start) < args.seconds) {
      const std::size_t pass = untraced_wall.size();
      if (one_thread) cpus.pin(pass);
      RunResult run = perfbench::run_untraced(spec, threads);
      const std::uint64_t hash = perfbench::check_run(run, tally, reference);
      if (!reference) reference = hash;
      untraced_wall.push_back(run.wall_s);
      rates[pass % rates.size()].push_back(
          static_cast<double>(run.demand_requests) / run.wall_s);
      last = std::move(run);
      if (!args.trace) continue;

      RunResult traced = perfbench::run_traced(spec, threads);
      perfbench::check_run(traced, tally, reference);
      traced_wall.push_back(traced.wall_s);
      report_s.push_back(traced.report_s);
      samples.push_back(summarize_trace(traced));
    }

    cpus.release();

    std::printf("perfbench: workload %s, seed %" PRIu64
                ", %zu measured pass(es), %zu set-up pass(es), %zu CPU(s)%s\n",
                workload.name.c_str(), args.seed, untraced_wall.size(),
                parse_s.size(), cpus.size(),
                one_thread ? ", passes rotated over them" : "");
    print_pass_walls(untraced_wall);
    print_simulated(last, *reference);
    if (workload.name == "fig9-sweep") print_paper_gap(last);
    std::printf("checks: %" PRIu64 " evaluated over %" PRIu64
                " job runs, %" PRIu64 " failed\n",
                tally.checks, tally.attempted, tally.failed);
    for (const auto& failure : tally.failures) {
      std::printf("check failed: %s\n", failure.c_str());
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
      metrics = {
          {"requests_per_s", perfbench::mean_of_medians(rates), "req/s"},
          {"setup_s", perfbench::mean_of_medians(setup_s), "s"},
          {"peak_rss_mb", peak_rss_mib(), "MiB"}};
    } else {
      const auto pick = [&](double TraceSample::*field) {
        std::vector<double> values;
        for (const auto& s : samples) values.push_back(s.*field);
        return median(values);
      };
      std::uint64_t write_drains = 0;
      std::uint64_t admit_stalls = 0;
      for (const auto& stats : last.stats) {
        write_drains += stats.write_drains;
        admit_stalls += stats.admit_stalls;
      }
      metrics = {
          {"source.ns_per_req", pick(&TraceSample::source_ns), "ns"},
          {"source.share", pick(&TraceSample::source_share), "fraction"},
          {"replay.ns_per_req", pick(&TraceSample::replay_ns), "ns"},
          {"replay.share", pick(&TraceSample::replay_share), "fraction"},
          {"sched.ns_per_req", probes.sched_ns_per_req, "ns"},
          {"sched.share", probes.sched_share, "fraction"},
          {"sched.write_drains", static_cast<double>(write_drains), "count"},
          {"sched.admit_stalls", static_cast<double>(admit_stalls), "count"},
          {"hybrid.ns_per_req", probes.hybrid_ns_per_req, "ns"},
          {"cache.ns_per_access", probes.cache_ns_per_access, "ns"},
          {"cache.hit_rate", probes.cache_hit_rate, "fraction"},
          {"tenant.merge_ns_per_req", probes.merge_ns_per_req, "ns"},
          {"tenant.baseline_share", pick(&TraceSample::baseline_share),
           "fraction"},
          {"telemetry.ns_per_req", probes.telemetry_ns_per_req, "ns"},
          {"telemetry.export_s", probes.telemetry_export_s, "s"},
          {"telemetry.dropped_share", probes.telemetry_dropped_share,
           "fraction"},
          {"driver.pool_busy_share", pick(&TraceSample::pool_busy),
           "fraction"},
          {"driver.job_s_p50", pick(&TraceSample::job_p50), "s"},
          {"driver.job_s_max", pick(&TraceSample::job_max), "s"},
          {"driver.report_s", median(report_s), "s"},
          {"config.parse_s", median(parse_s), "s"},
          {"trace.overhead_share", median(traced_wall) / median(untraced_wall),
           "fraction"},
      };
    }
    print_result(tally.failed == 0, tally, metrics);
  } catch (const std::exception& e) {
    std::cerr << "comet_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
