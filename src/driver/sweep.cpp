#include "driver/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "driver/registry.hpp"
#include "memsim/trace.hpp"
#include "tenant/runner.hpp"

namespace comet::driver {

namespace {

/// Display label for a trace-file run: the file's basename.
std::string trace_display_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

config::ExperimentSpec resolve_experiment(config::ExperimentSpec spec) {
  std::vector<DeviceSpec> devices;
  for (const auto& token : spec.device_tokens) {
    for (auto& resolved : resolve_device_specs(token)) {
      devices.push_back(std::move(resolved));
    }
  }
  for (auto& inline_device : spec.devices) {
    devices.push_back(std::move(inline_device));
  }
  spec.devices = std::move(devices);
  spec.device_tokens.clear();

  std::vector<memsim::WorkloadProfile> workloads;
  for (const auto& name : spec.workload_names) {
    if (name == "all") {
      for (auto& profile : memsim::spec_like_profiles()) {
        workloads.push_back(std::move(profile));
      }
    } else {
      workloads.push_back(memsim::profile_by_name(name));
    }
  }
  for (auto& inline_workload : spec.workloads) {
    workloads.push_back(std::move(inline_workload));
  }
  spec.workloads = std::move(workloads);
  spec.workload_names.clear();
  return spec;
}

std::vector<SweepJob> build_matrix(const config::ExperimentSpec& spec) {
  const config::ExperimentSpec resolved = resolve_experiment(spec);
  resolved.validate();

  std::vector<memsim::WorkloadProfile> profiles;
  if (!resolved.tenants.empty()) {
    // Multi-tenant run: one pseudo-workload labelled "a+b+..." (the
    // same label run_multi_tenant stamps on the shared run); the
    // tenant specs carry the actual demand.
    memsim::WorkloadProfile pseudo;
    for (const auto& tenant : resolved.tenants) {
      if (!pseudo.name.empty()) pseudo.name += '+';
      pseudo.name += tenant.name;
    }
    profiles.push_back(std::move(pseudo));
  } else if (!resolved.trace_file.empty()) {
    // On-disk replay: one pseudo-workload per trace file, labelled with
    // its basename; the profile is never used for synthesis.
    memsim::WorkloadProfile pseudo;
    pseudo.name = trace_display_name(resolved.trace_file);
    profiles.push_back(std::move(pseudo));
  } else {
    profiles = resolved.workloads;
  }

  // The scheduler axis: no [controller] section runs the legacy direct
  // replay (one cell, no controller); otherwise one cell per policy.
  std::vector<std::optional<sched::ControllerConfig>> controllers;
  if (resolved.policies.empty()) {
    controllers.push_back(std::nullopt);
  } else {
    for (const auto policy : resolved.policies) {
      sched::ControllerConfig controller = resolved.controller;
      controller.policy = policy;
      controllers.emplace_back(controller);
    }
  }

  std::vector<SweepJob> jobs;
  jobs.reserve(resolved.devices.size() * resolved.channels.size() *
               controllers.size() * resolved.run_threads.size() *
               profiles.size() * resolved.requests.size() *
               resolved.seeds.size());
  for (const auto& device : resolved.devices) {
    for (const int channels : resolved.channels) {
      DeviceSpec configured = device;
      if (channels > 0) configured.set_channels(channels);
      for (const auto& controller : controllers) {
        for (const int run_threads : resolved.run_threads) {
          for (const auto& profile : profiles) {
            for (const auto requests : resolved.requests) {
              for (const auto seed : resolved.seeds) {
                SweepJob job;
                job.device = configured;
                job.profile = profile;
                job.requests = static_cast<std::size_t>(requests);
                job.seed = seed;
                job.line_bytes = resolved.line_bytes;
                job.trace_path = resolved.trace_file;
                job.cpu_ghz = resolved.cpu_ghz;
                job.controller = controller;
                job.run_threads = run_threads;
                job.telemetry = resolved.telemetry;
                job.profile_spec = resolved.profile;
                job.tenants = resolved.tenants;
                job.tenant_mapping = resolved.tenant_mapping;
                job.experiment = resolved.name;
                job.config_file = resolved.source;
                jobs.push_back(std::move(job));
              }
            }
          }
        }
      }
    }
  }
  return jobs;
}

memsim::SimStats run_job(const SweepJob& job, telemetry::Collector* collector,
                         prof::Profiler* profiler) {
  const auto engine = job.device.make_engine(job.controller, job.run_threads);
  if (collector) engine->attach_telemetry(collector);
  if (profiler) engine->attach_profiler(profiler);
  const auto started = std::chrono::steady_clock::now();
  const auto finish = [&](memsim::SimStats stats) {
    if (profiler) {
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      profiler->set_wall_seconds(wall_s);
    }
    return stats;
  };
  if (!job.tenants.empty()) {
    tenant::MultiTenantJob multi;
    multi.tenants = job.tenants;
    multi.mapping = job.tenant_mapping;
    multi.default_requests = job.requests;
    multi.seed = job.seed;
    multi.line_bytes = job.line_bytes;
    multi.cpu_ghz = job.cpu_ghz;
    return finish(tenant::run_multi_tenant(*engine, multi));
  }
  if (!job.trace_path.empty()) {
    memsim::TraceFileSource source(
        job.trace_path, memsim::TraceConfig{.cpu_clock_ghz = job.cpu_ghz,
                                            .line_bytes = job.line_bytes});
    return finish(engine->run(source, job.profile.name));
  }
  auto source = memsim::TraceGenerator(job.profile, job.seed)
                    .stream(job.requests, job.line_bytes);
  return finish(engine->run(source, job.profile.name));
}

std::vector<std::unique_ptr<prof::Profiler>> make_profilers(
    const std::vector<SweepJob>& jobs) {
  std::vector<std::unique_ptr<prof::Profiler>> profilers(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].profile_spec.enabled()) {
      profilers[i] = std::make_unique<prof::Profiler>(jobs[i].profile_spec);
    }
  }
  return profilers;
}

std::uint64_t estimate_sweep_requests(const std::vector<SweepJob>& jobs) {
  std::uint64_t total = 0;
  for (const SweepJob& job : jobs) {
    if (!job.tenants.empty()) {
      // Merged run plus one baseline replay per tenant: 2x each stream.
      for (const auto& tenant : job.tenants) {
        const std::uint64_t requests =
            tenant.trace_file.empty()
                ? (tenant.requests > 0 ? tenant.requests : job.requests)
                : 0;  // Trace tenants: length unknown until EOF.
        total += 2 * requests;
      }
    } else if (job.trace_path.empty()) {
      total += job.requests;
    }
  }
  return total;
}

std::vector<memsim::SimStats> run_sweep(
    const std::vector<SweepJob>& jobs, int threads,
    std::vector<std::unique_ptr<telemetry::Collector>>* collectors,
    std::vector<std::unique_ptr<prof::Profiler>>* profilers) {
  std::vector<memsim::SimStats> results(jobs.size());
  if (collectors) {
    // One collector per telemetry-enabled job, created before any
    // worker starts so the pool only ever reads the vector.
    collectors->clear();
    collectors->resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].telemetry.enabled()) {
        (*collectors)[i] =
            std::make_unique<telemetry::Collector>(jobs[i].telemetry);
      }
    }
  }
  const auto job_collector = [&](std::size_t i) -> telemetry::Collector* {
    return collectors ? (*collectors)[i].get() : nullptr;
  };
  const auto job_profiler = [&](std::size_t i) -> prof::Profiler* {
    return profilers ? (*profilers)[i].get() : nullptr;
  };
  if (jobs.empty()) return results;

  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (threads > static_cast<int>(jobs.size())) {
    threads = static_cast<int>(jobs.size());
  }

  if (threads == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = run_job(jobs[i], job_collector(i), job_profiler(i));
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        results[i] = run_job(jobs[i], job_collector(i), job_profiler(i));
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Drain the queue so peers stop picking up new work.
        next.store(jobs.size(), std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace comet::driver
