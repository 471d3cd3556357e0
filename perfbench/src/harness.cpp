#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "memsim/trace_gen.hpp"
#include "telemetry/export.hpp"

namespace perfbench {

using comet::driver::SweepJob;
using comet::memsim::Request;
using comet::memsim::RequestSource;
using comet::memsim::SimStats;

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

double mean_of_medians(const std::vector<std::vector<double>>& groups) {
  double sum = 0.0;
  int used = 0;
  for (const auto& group : groups) {
    if (group.empty()) continue;
    sum += median(group);
    ++used;
  }
  if (used == 0) throw std::logic_error("mean_of_medians: no samples");
  return sum / used;
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  if (cpus_.empty()) cpus_.push_back(-1);  // Unknown: never pin.
}

void CpuRotation::pin(std::size_t i) {
  const int cpu = cpus_[i % cpus_.size()];
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

void CpuRotation::release() {
  if (!pinned_) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int cpu : cpus_) CPU_SET(cpu, &all);
  sched_setaffinity(0, sizeof(all), &all);
  pinned_ = false;
}

comet::config::ExperimentSpec load_spec(const Workload& workload) {
  auto spec = comet::config::parse_experiment_file(
      workload.spec_path, comet::driver::registry_resolver());
  spec.seeds = {workload.seed};
  for (auto& requests : spec.requests) {
    requests = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(requests) *
                                      workload.scale));
  }
  for (auto& tenant : spec.tenants) {
    tenant.requests = static_cast<std::uint64_t>(
        static_cast<double>(tenant.requests) * workload.scale);
  }
  return spec;
}

comet::tenant::MultiTenantJob multi_tenant_job(const SweepJob& job) {
  comet::tenant::MultiTenantJob multi;
  multi.tenants = job.tenants;
  multi.mapping = job.tenant_mapping;
  multi.default_requests = job.requests;
  multi.seed = job.seed;
  multi.line_bytes = job.line_bytes;
  multi.cpu_ghz = job.cpu_ghz;
  return multi;
}

std::unique_ptr<RequestSource> make_job_source(const SweepJob& job) {
  if (!job.trace_path.empty()) {
    throw std::invalid_argument("perfbench: trace-file jobs are not supported");
  }
  if (!job.tenants.empty()) {
    return comet::tenant::make_multi_stream(multi_tenant_job(job));
  }
  return std::make_unique<comet::memsim::GeneratorSource>(
      comet::memsim::TraceGenerator(job.profile, job.seed)
          .stream(job.requests, job.line_bytes));
}

std::uint64_t demand_requests(const SweepJob& job) {
  if (job.tenants.empty()) return job.requests;
  std::uint64_t total = 0;
  for (const auto& tenant : job.tenants) {
    total += tenant.requests != 0 ? tenant.requests : job.requests;
  }
  return total;
}

SetupSample time_setup(const Workload& workload) {
  SetupSample sample;
  const auto start = Clock::now();
  const auto spec = load_spec(workload);
  sample.parse_s = seconds_since(start);
  const auto jobs = comet::driver::build_matrix(spec);
  for (const SweepJob& job : jobs) {
    const auto engine = job.device.make_engine(job.controller, job.run_threads);
    const auto source = make_job_source(job);
  }
  sample.total_s = seconds_since(start);
  return sample;
}

namespace {

/// Times every pull from the wrapped stream (the engines pull ~1024-
/// request blocks, so the clock reads amortize away).
class TimedSource final : public RequestSource {
 public:
  explicit TimedSource(RequestSource& inner) : inner_(inner) {}

  std::optional<Request> next() override {
    const auto start = Clock::now();
    auto request = inner_.next();
    busy_ += Clock::now() - start;
    if (request) ++pulled_;
    return request;
  }

  std::size_t next_batch(Request* out, std::size_t max) override {
    const auto start = Clock::now();
    const std::size_t filled = inner_.next_batch(out, max);
    busy_ += Clock::now() - start;
    pulled_ += filled;
    return filled;
  }

  double busy_s() const {
    return std::chrono::duration<double>(busy_).count();
  }
  std::uint64_t pulled() const { return pulled_; }

 private:
  RequestSource& inner_;
  Clock::duration busy_{};
  std::uint64_t pulled_ = 0;
};

/// Engine decorator: forwards run() to the real engine with the source
/// wrapped in a TimedSource, and records one EngineCall per run. The
/// telemetry collector attached to the decorator is handed through on
/// every call, so tenant::run_multi_tenant's detach-for-baselines dance
/// reaches the real engine.
class TimedEngine final : public comet::memsim::Engine {
 public:
  explicit TimedEngine(std::unique_ptr<comet::memsim::Engine> inner)
      : inner_(std::move(inner)) {}

  using Engine::run;

  SimStats run(RequestSource& source,
               const std::string& workload_name) const override {
    inner_->attach_telemetry(telemetry());
    TimedSource timed(source);
    const auto start = Clock::now();
    SimStats stats = inner_->run(timed, workload_name);
    calls_.push_back({seconds_since(start), timed.busy_s(), timed.pulled()});
    return stats;
  }

  const std::vector<EngineCall>& calls() const { return calls_; }

 private:
  std::unique_ptr<comet::memsim::Engine> inner_;
  mutable std::vector<EngineCall> calls_;
};

/// driver::run_job with the engine behind a TimedEngine.
SimStats run_traced_job(const SweepJob& job,
                        comet::telemetry::Collector* collector,
                        JobTrace& trace) {
  const auto start = Clock::now();
  TimedEngine engine(job.device.make_engine(job.controller, job.run_threads));
  engine.attach_telemetry(collector);
  SimStats stats;
  if (!job.tenants.empty()) {
    stats = comet::tenant::run_multi_tenant(engine, multi_tenant_job(job));
  } else {
    const auto source = make_job_source(job);
    stats = engine.run(*source, job.profile.name);
  }
  trace.wall_s = seconds_since(start);
  trace.calls = engine.calls();
  return stats;
}

int clamp_threads(int threads, std::size_t jobs) {
  if (threads <= 0) {
    threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  return std::max(1, std::min(threads, static_cast<int>(jobs)));
}

/// Console report, JSON report and telemetry export, formatted and
/// dropped — what comet_sim writes to stdout and disk.
void write_reports(const RunResult& run) {
  DiscardStream os;
  comet::driver::print_report(os, run.jobs, run.stats, /*csv=*/false);
  comet::driver::write_json(os, run.jobs, run.stats, &run.collectors);
  std::vector<comet::telemetry::TraceRun> traced;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    if (!run.collectors[i]) continue;
    traced.push_back({run.jobs[i].device.name + "/" + run.jobs[i].profile.name,
                      run.collectors[i].get()});
  }
  if (!traced.empty()) {
    const auto& spec = run.jobs.front().telemetry;
    if (spec.tracing()) comet::telemetry::write_chrome_trace(os, traced);
    if (!spec.metrics_csv.empty()) {
      comet::telemetry::write_timeline_csv(os, traced);
    }
  }
}

void finish_run(RunResult& run, Clock::time_point start) {
  const auto report_start = Clock::now();
  write_reports(run);
  run.report_s = seconds_since(report_start);
  run.wall_s = seconds_since(start);
  for (const SweepJob& job : run.jobs) {
    run.demand_requests += demand_requests(job);
  }
}

}  // namespace

RunResult run_untraced(const comet::config::ExperimentSpec& spec,
                       int threads) {
  RunResult run;
  const auto start = Clock::now();
  run.jobs = comet::driver::build_matrix(spec);
  run.stats = comet::driver::run_sweep(run.jobs, threads, &run.collectors);
  finish_run(run, start);
  return run;
}

RunResult run_traced(const comet::config::ExperimentSpec& spec, int threads) {
  RunResult run;
  const auto start = Clock::now();
  run.jobs = comet::driver::build_matrix(spec);
  const std::size_t n = run.jobs.size();
  run.threads = clamp_threads(threads, n);
  run.stats.resize(n);
  run.traces.resize(n);
  run.collectors.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (run.jobs[i].telemetry.enabled()) {
      run.collectors[i] =
          std::make_unique<comet::telemetry::Collector>(run.jobs[i].telemetry);
    }
  }

  // Same shape as driver::run_sweep: workers claim jobs off one atomic
  // index; the first failure drains the queue and is rethrown.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        run.stats[i] =
            run_traced_job(run.jobs[i], run.collectors[i].get(), run.traces[i]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(n, std::memory_order_relaxed);
        return;
      }
    }
  };
  const auto pool_start = Clock::now();
  if (run.threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    for (int t = 0; t < run.threads; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }
  run.pool_s = seconds_since(pool_start);
  if (first_error) std::rethrow_exception(first_error);
  finish_run(run, start);
  return run;
}

std::uint64_t digest(const RunResult& run) {
  std::ostringstream os;
  comet::driver::write_json(os, run.jobs, run.stats, &run.collectors);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : os.str()) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

bool CheckTally::expect(bool ok, const std::string& what) {
  ++checks;
  if (!ok && failures.size() < 8 &&
      std::find(failures.begin(), failures.end(), what) == failures.end()) {
    failures.push_back(what);
  }
  return ok;
}

std::uint64_t check_run(const RunResult& run, CheckTally& tally,
                        std::optional<std::uint64_t> reference) {
  const std::uint64_t hash = digest(run);
  const bool reproduced = tally.expect(
      !reference || hash == *reference,
      run.traces.empty() ? "untraced passes differ in their results"
                         : "traced results differ from the untraced run's");
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const SweepJob& job = run.jobs[i];
    const SimStats& stats = run.stats[i];
    const std::string cell = job.device.name + "/" + job.profile.name + ": ";
    const std::uint64_t total = stats.reads + stats.writes;
    bool ok = reproduced;
    ok &= tally.expect(stats.device_name == job.device.name,
                           cell + "job did not complete");
    ok &= tally.expect(total == demand_requests(job),
                       cell + "reads + writes = " + std::to_string(total) +
                           ", generated " +
                           std::to_string(demand_requests(job)));
    if (!job.tenants.empty()) {
      std::uint64_t tenant_total = 0;
      for (const auto& tenant : stats.tenants) tenant_total += tenant.requests();
      ok &= tally.expect(tenant_total == total,
                         cell + "per-tenant requests sum to " +
                             std::to_string(tenant_total) + ", run total " +
                             std::to_string(total));
    }
    if (!run.traces.empty() && !run.traces[i].calls.empty()) {
      const std::uint64_t pulled = run.traces[i].calls.front().pulled;
      ok &= tally.expect(pulled == total,
                         cell + "traced source yielded " +
                             std::to_string(pulled) + ", run total " +
                             std::to_string(total));
    }
    const auto* collector = run.collectors[i].get();
    if (collector && collector->spec().sampling()) {
      std::uint64_t epoch_total = 0;
      for (const auto& point : collector->timeline()) {
        epoch_total += point.reads + point.writes;
      }
      ok &= tally.expect(epoch_total == total,
                         cell + "epoch counts sum to " +
                             std::to_string(epoch_total) + ", run total " +
                             std::to_string(total));
    }
    ++tally.attempted;
    if (!ok) ++tally.failed;
  }
  return hash;
}

}  // namespace perfbench
