#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "config/experiment.hpp"
#include "driver/sweep.hpp"
#include "memsim/engine.hpp"
#include "memsim/source.hpp"
#include "memsim/stats.hpp"
#include "telemetry/telemetry.hpp"
#include "tenant/runner.hpp"

/// Host-time harness around the simulator's public driver path.
///
/// The end-to-end run is exactly what `comet_sim --config` does: parse
/// the experiment document, driver::build_matrix, driver::run_sweep,
/// then the console report, the JSON report and any telemetry export —
/// all formatted into a DiscardStream. The traced run replays the same matrix
/// through timing decorators on the engine and source seams instead,
/// and must produce bit-identical simulated statistics.
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> values);

/// Mean of the medians of the non-empty groups in `groups`.
double mean_of_medians(const std::vector<std::vector<double>>& groups);

/// Pins the calling thread to each CPU the process may use, in turn.
/// A single-threaded process tends to stay on one CPU, and on a shared
/// host each CPU runs at its own pace, so an unpinned run measures
/// whichever CPU it landed on. Samples taken under pin(i) belong to
/// group i % size(); release() restores the original CPU set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  std::size_t size() const { return cpus_.size(); }
  void pin(std::size_t i);
  void release();

 private:
  std::vector<int> cpus_;
  bool pinned_ = false;
};

/// One workload as the benchmark runs it: a TOML experiment document
/// plus the knobs the benchmark owns (seed and size).
struct Workload {
  std::string name;
  std::string spec_path;
  std::uint64_t seed = 1;
  double scale = 1.0;  ///< Multiplies every request count (smoke runs).
};

/// Parses the workload's document (config::parse_experiment_file, the
/// `--config` path) and applies the seed and scale.
comet::config::ExperimentSpec load_spec(const Workload& workload);

/// The multi-tenant job driver::run_job builds from a tenant cell.
comet::tenant::MultiTenantJob multi_tenant_job(
    const comet::driver::SweepJob& job);

/// The job's demand stream as driver::run_job builds it (generator or
/// merged tenant stream); trace-file jobs are not supported.
std::unique_ptr<comet::memsim::RequestSource> make_job_source(
    const comet::driver::SweepJob& job);

/// Requests the job's demand stream yields: the generator count, or the
/// sum over tenants (run-alone baselines not included).
std::uint64_t demand_requests(const comet::driver::SweepJob& job);

/// Set-up from the experiment document to the first request: document
/// parse, build_matrix, and every job's engine and source constructed.
struct SetupSample {
  double parse_s = 0.0;
  double total_s = 0.0;
};
SetupSample time_setup(const Workload& workload);

/// Per-job host timings the traced run records.
struct EngineCall {
  double run_s = 0.0;     ///< Whole Engine::run call.
  double source_s = 0.0;  ///< Time inside the source's next/next_batch.
  std::uint64_t pulled = 0;
};
struct JobTrace {
  double wall_s = 0.0;  ///< Engine construction to stats returned.
  std::vector<EngineCall> calls;  ///< Shared run first, then baselines.
};

/// An output stream that formats through a fixed buffer, as a buffered
/// file stream does, and then drops the bytes. Reports and exports cost
/// their formatting, without disk I/O and without growing one large
/// in-memory string.
class DiscardStream final : public std::ostream {
 public:
  DiscardStream() : std::ostream(&buffer_) {}

 private:
  class Buffer final : public std::streambuf {
   public:
    Buffer() { setp(bytes_.data(), bytes_.data() + bytes_.size()); }

   protected:
    int_type overflow(int_type c) override {
      setp(bytes_.data(), bytes_.data() + bytes_.size());
      if (!traits_type::eq_int_type(c, traits_type::eof())) {
        sputc(traits_type::to_char_type(c));
      }
      return traits_type::not_eof(c);
    }

   private:
    std::array<char, 64 * 1024> bytes_{};
  };

  Buffer buffer_;
};

/// One pass over the matrix, untraced or traced.
struct RunResult {
  std::vector<comet::driver::SweepJob> jobs;
  std::vector<comet::memsim::SimStats> stats;
  std::vector<std::unique_ptr<comet::telemetry::Collector>> collectors;
  std::uint64_t demand_requests = 0;
  double wall_s = 0.0;    ///< build_matrix to reports written.
  double report_s = 0.0;  ///< Console + JSON report + telemetry export.

  // Traced runs only.
  double pool_s = 0.0;  ///< The worker pool, start to join.
  int threads = 1;      ///< Workers the pool used.
  std::vector<JobTrace> traces;  ///< Indexed like jobs.
};

/// driver::build_matrix → driver::run_sweep → reports, as comet_sim.
RunResult run_untraced(const comet::config::ExperimentSpec& spec,
                       int threads);

/// The same matrix through a timing Engine decorator and a timing
/// RequestSource wrapper, on a worker pool shaped like run_sweep's.
RunResult run_traced(const comet::config::ExperimentSpec& spec, int threads);

/// FNV-1a digest of the run's simulated results: the JSON report
/// (statistics, tenant breakdowns, telemetry timelines) without host
/// fields.
std::uint64_t digest(const RunResult& run);

/// Output checks over one pass; every job is one attempted operation
/// and fails if any of its checks fails.
struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;  ///< Individual checks evaluated.
  std::vector<std::string> failures;

  /// Counts one check, keeps the first few failure messages; returns
  /// `ok`.
  bool expect(bool ok, const std::string& what);
};

/// Runs the output checks over one pass and returns its digest. Given a
/// `reference` digest, the pass must also reproduce it (passes of one
/// workload agree, and the traced run matches the untraced one); a
/// mismatch fails every job of the pass.
std::uint64_t check_run(const RunResult& run, CheckTally& tally,
                        std::optional<std::uint64_t> reference);

}  // namespace perfbench
