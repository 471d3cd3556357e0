#include "probes.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "driver/registry.hpp"
#include "harness.hpp"
#include "hybrid/dram_cache.hpp"
#include "hybrid/tiered_system.hpp"
#include "memsim/system.hpp"
#include "sched/controller.hpp"
#include "telemetry/export.hpp"
#include "tenant/runner.hpp"

namespace perfbench {

using comet::driver::SweepJob;
using comet::memsim::Request;
using comet::memsim::RequestSource;

namespace {

/// Median wall time of `reps` calls of `body`.
double time_median(int reps, const std::function<void()>& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    body();
    samples.push_back(seconds_since(start));
  }
  return median(std::move(samples));
}

/// Drains a source through the block interface; returns its length.
std::uint64_t drain(RequestSource& source) {
  std::array<Request, comet::memsim::kFeedBlockRequests> block;
  std::uint64_t total = 0;
  while (const std::size_t n = source.next_batch(block.data(), block.size())) {
    total += n;
  }
  return total;
}

std::vector<Request> probe_stream(const SweepJob& job, std::uint64_t limit) {
  const auto source = make_job_source(job);
  std::vector<Request> requests(limit);
  std::size_t filled = 0;
  while (filled < requests.size()) {
    const std::size_t n =
        source->next_batch(requests.data() + filled, requests.size() - filled);
    if (n == 0) break;
    filled += n;
  }
  requests.resize(filled);
  return requests;
}

/// The device the flat probes replay on: the job's own flat model, or
/// the backend behind its cache tier.
comet::memsim::DeviceModel backend_model(const SweepJob& job) {
  return job.device.flat ? *job.device.flat : job.device.tiered->backend;
}

void probe_sched(const SweepJob& job, const std::vector<Request>& stream,
                 int reps, ProbeResults& out) {
  // Stand-in for workloads without a controller: read-first with the
  // default bounded queues (the sched-writes configuration).
  comet::sched::ControllerConfig config;
  config.policy = comet::sched::Policy::kReadFirst;
  if (job.controller) config = *job.controller;
  const comet::memsim::MemorySystem flat(backend_model(job));
  const comet::sched::ScheduledSystem scheduled(backend_model(job), config);
  const double flat_s = time_median(reps, [&] { flat.run(stream); });
  const double sched_s = time_median(reps, [&] { scheduled.run(stream); });
  out.sched_ns_per_req =
      1e9 * (sched_s - flat_s) / static_cast<double>(stream.size());
  out.sched_share = (sched_s - flat_s) / sched_s;
}

void probe_hybrid(const SweepJob& job, const std::vector<Request>& stream,
                  int reps, ProbeResults& out) {
  // Stand-in for flat workloads: the registry's hybrid-comet, direct.
  const bool hybrid = job.device.is_hybrid();
  const comet::hybrid::TieredConfig config =
      hybrid ? *job.device.tiered
             : *comet::driver::make_device_spec("hybrid-comet").tiered;
  const comet::hybrid::TieredSystem tiered(
      config, hybrid ? job.controller : std::nullopt);
  out.hybrid_ns_per_req = 1e9 *
                          time_median(reps, [&] { tiered.run(stream); }) /
                          static_cast<double>(stream.size());

  // The tag filter alone, driven the way TieredSystem drives it: one
  // access per cache line a demand request touches.
  const std::uint32_t line_bytes = config.cache.line_bytes;
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  const double cache_s = time_median(reps, [&] {
    comet::hybrid::DramCache cache(config.cache);
    accesses = 0;
    hits = 0;
    for (const Request& request : stream) {
      const bool is_write = request.op == comet::memsim::Op::kWrite;
      const std::uint64_t last =
          (request.address + request.size_bytes - 1) / line_bytes;
      for (std::uint64_t line = request.address / line_bytes; line <= last;
           ++line) {
        hits += cache.access(line * line_bytes, is_write).hit ? 1 : 0;
        ++accesses;
      }
    }
  });
  out.cache_ns_per_access = 1e9 * cache_s / static_cast<double>(accesses);
  out.cache_hit_rate =
      static_cast<double>(hits) / static_cast<double>(accesses);
}

void probe_merge(const SweepJob& job, std::uint64_t limit, int reps,
                 ProbeResults& out) {
  // Stand-in for single-stream workloads: two tenants on the job's own
  // profile, partition-mapped.
  comet::tenant::MultiTenantJob multi = multi_tenant_job(job);
  if (multi.tenants.empty()) {
    for (const char* name : {"a", "b"}) {
      comet::config::TenantSpec tenant;
      tenant.name = name;
      tenant.profile = job.profile;
      multi.tenants.push_back(tenant);
    }
  }
  for (auto& tenant : multi.tenants) {
    tenant.requests = std::max<std::uint64_t>(1, limit / multi.tenants.size());
  }
  std::uint64_t merged = 0;
  const double multi_s = time_median(reps, [&] {
    merged = drain(*comet::tenant::make_multi_stream(multi));
  });
  const double parts_s = time_median(reps, [&] {
    for (std::size_t i = 0; i < multi.tenants.size(); ++i) {
      drain(*comet::tenant::make_tenant_stream(multi, i));
    }
  });
  out.merge_ns_per_req =
      1e9 * (multi_s - parts_s) / static_cast<double>(merged);
}

void probe_telemetry(const SweepJob& job, const std::vector<Request>& stream,
                     int reps, ProbeResults& out) {
  // Stand-in for unobserved workloads: the observed-flat recording (a
  // capped request trace plus 10 us epoch sampling).
  comet::telemetry::TelemetrySpec spec = job.telemetry;
  if (!spec.enabled()) {
    spec.trace_path = "probe.trace.json";  // Label only; never opened.
    spec.trace_limit = 20000;
    spec.metrics_interval_ps = 10'000'000;
  }
  const auto engine = job.device.make_engine(job.controller, job.run_threads);
  const double off_s = time_median(reps, [&] { engine->run(stream); });

  std::vector<double> on;
  std::vector<double> exports;
  for (int r = 0; r < reps; ++r) {
    comet::telemetry::Collector collector(spec);
    engine->attach_telemetry(&collector);
    auto start = Clock::now();
    engine->run(stream);
    on.push_back(seconds_since(start));
    engine->attach_telemetry(nullptr);

    start = Clock::now();
    DiscardStream os;
    const std::vector<comet::telemetry::TraceRun> runs = {
        {job.device.name + "/" + job.profile.name, &collector}};
    if (spec.tracing()) comet::telemetry::write_chrome_trace(os, runs);
    if (spec.sampling()) comet::telemetry::write_timeline_csv(os, runs);
    exports.push_back(seconds_since(start));

    const double recorded = static_cast<double>(collector.recorded_events());
    const double dropped = static_cast<double>(collector.dropped_events());
    out.telemetry_dropped_share =
        recorded + dropped > 0 ? dropped / (recorded + dropped) : 0.0;
  }
  out.telemetry_ns_per_req =
      1e9 * (median(on) - off_s) / static_cast<double>(stream.size());
  out.telemetry_export_s = median(exports);
}

}  // namespace

const SweepJob& probe_job(const std::vector<SweepJob>& jobs) {
  const auto it = std::find_if(jobs.begin(), jobs.end(), [](const SweepJob& j) {
    return j.device.name == "COMET-4b";
  });
  return it != jobs.end() ? *it : jobs.front();
}

ProbeResults run_probes(const std::vector<SweepJob>& jobs,
                        std::uint64_t max_requests, int reps) {
  const SweepJob& job = probe_job(jobs);
  const auto stream =
      probe_stream(job, std::min(max_requests, demand_requests(job)));
  ProbeResults out;
  out.requests = stream.size();
  probe_sched(job, stream, reps, out);
  probe_hybrid(job, stream, reps, out);
  probe_merge(job, stream.size(), reps, out);
  probe_telemetry(job, stream, reps, out);
  return out;
}

}  // namespace perfbench
