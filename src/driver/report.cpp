#include "driver/report.hpp"

#include <array>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <variant>

#include "sched/controller.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace comet::driver {

namespace {

using util::json_number;
using util::json_string;

void write_value(std::ostream& os, std::uint64_t v) { os << v; }
void write_value(std::ostream& os, double v) { os << json_number(v); }

/// `"key": value` per row of a metric table, each after ", " (the first
/// one too unless `lead` is false).
template <typename Rows, typename V>
void write_metrics(std::ostream& os, const Rows& rows, const V& view,
                   bool lead = true) {
  for (const auto& row : rows) {
    os << (lead ? ", \"" : "\"") << row.key << "\": ";
    std::visit([&](auto get) { write_value(os, get(view)); }, row.get);
    lead = true;
  }
}

}  // namespace

void print_report(std::ostream& os, const std::vector<SweepJob>& jobs,
                  const std::vector<memsim::SimStats>& results, bool csv) {
  if (jobs.size() != results.size()) {
    throw std::invalid_argument("jobs/results size mismatch");
  }
  using util::Table;

  Table per_run({"device", "workload", "BW (GB/s)", "EPB (pJ/bit)",
                 "read lat (ns)", "write lat (ns)", "queue (ns)"});
  // One summary row per matrix cell minus the workload axis: the device
  // name, then its policy, channel count, request count and seed as the
  // row label spells them.
  using Cell = std::array<std::string, 5>;
  const auto cell_of = [](const SweepJob& job) {
    return Cell{job.device.name,
                job.controller ? sched::policy_name(job.controller->policy)
                               : "",
                std::to_string(job.device.channels()) + " ch",
                std::to_string(job.requests) + " req",
                "seed " + std::to_string(job.seed)};
  };
  struct Agg {
    double bw = 0.0, epb = 0.0, latency = 0.0;
    int n = 0;
  };
  std::map<Cell, Agg> per_cell;
  std::vector<Cell> cell_order;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& stats = results[i];
    per_run.add_row({jobs[i].device.name, jobs[i].profile.name,
                     Table::num(stats.bandwidth_gbps(), 2),
                     Table::num(stats.epb_pj_per_bit(), 2),
                     Table::num(stats.read_latency_ns.mean(), 1),
                     Table::num(stats.write_latency_ns.mean(), 1),
                     Table::num(stats.queue_delay_ns.mean(), 1)});
    const Cell cell = cell_of(jobs[i]);
    if (per_cell.find(cell) == per_cell.end()) cell_order.push_back(cell);
    auto& agg = per_cell[cell];
    agg.bw += stats.bandwidth_gbps();
    agg.epb += stats.epb_pj_per_bit();
    agg.latency += stats.avg_latency_ns();
    ++agg.n;
  }

  os << "=== Per-run results ===\n";
  if (csv) per_run.print_csv(os); else per_run.print(os);

  Table summary({"device", "avg BW (GB/s)", "avg EPB (pJ/bit)", "BW/EPB",
                 "avg latency (ns)"});
  // A row names an axis only when some device takes several values of
  // it, so sweeps without those axes keep the bare device label.
  std::set<std::string> devices;
  for (const auto& cell : cell_order) devices.insert(cell[0]);
  std::vector<std::size_t> named_axes;
  for (std::size_t axis = 1; axis < Cell{}.size(); ++axis) {
    std::set<std::pair<std::string, std::string>> seen;
    for (const auto& cell : cell_order) seen.emplace(cell[0], cell[axis]);
    if (seen.size() > devices.size()) named_axes.push_back(axis);
  }
  for (const auto& cell : cell_order) {
    std::string label = cell[0];
    for (std::size_t i = 0; i < named_axes.size(); ++i) {
      label += (i == 0 ? " (" : ", ") + cell[named_axes[i]];
    }
    if (!named_axes.empty()) label += ")";
    const auto& agg = per_cell.at(cell);
    const double bw = agg.bw / agg.n;
    const double epb = agg.epb / agg.n;
    summary.add_row({label, Table::num(bw, 2), Table::num(epb, 2),
                     Table::num(epb > 0 ? bw / epb : 0.0, 3),
                     Table::num(agg.latency / agg.n, 1)});
  }
  os << "\n=== Per-device averages over workloads ===\n";
  if (csv) summary.print_csv(os); else summary.print(os);

  // Hybrid runs get a tier breakdown: the flat columns above stay
  // comparable across all devices, and the cache behaviour lives here.
  Table hybrid({"device", "workload", "hit rate", "writebacks",
                "DRAM tier (pJ)", "backend tier (pJ)"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& stats = results[i];
    if (!stats.is_hybrid()) continue;
    hybrid.add_row({jobs[i].device.name, jobs[i].profile.name,
                    Table::num(stats.hit_rate(), 3),
                    std::to_string(stats.writebacks),
                    Table::sci(stats.dram_tier_energy_pj, 3),
                    Table::sci(stats.backend_tier_energy_pj, 3)});
  }
  if (hybrid.rows() > 0) {
    os << "\n=== Hybrid tier breakdown ===\n";
    if (csv) hybrid.print_csv(os); else hybrid.print(os);
  }

  // Scheduled runs get the controller breakdown: how much of the
  // end-to-end latency was controller-queue wait vs device service,
  // what the transaction queues held, and the write-drain activity.
  Table sched({"device", "workload", "policy", "queued (ns)", "service (ns)",
               "p95 read (ns)", "rd occ", "wr occ", "drains",
               "drain stalls", "admit stalls"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& stats = results[i];
    if (!stats.is_scheduled()) continue;
    sched.add_row({jobs[i].device.name, jobs[i].profile.name,
                   stats.sched_policy,
                   Table::num(stats.sched_queue_delay_ns.mean(), 1),
                   Table::num(stats.service_latency_ns.mean(), 1),
                   Table::num(stats.read_latency_ns.p95(), 1),
                   Table::num(stats.read_queue_occupancy.mean(), 2),
                   Table::num(stats.write_queue_occupancy.mean(), 2),
                   std::to_string(stats.write_drains),
                   std::to_string(stats.drain_stalls),
                   std::to_string(stats.admit_stalls)});
  }
  if (sched.rows() > 0) {
    os << "\n=== Scheduler breakdown ===\n";
    if (csv) sched.print_csv(os); else sched.print(os);
  }

  // Multi-tenant runs get the fairness breakdown: per-tenant latency
  // against its own run-alone baseline, plus each run's max slowdown
  // and Jain index over the per-tenant slowdowns.
  Table tenants({"device", "workload", "tenant", "reqs", "avg (ns)",
                 "p99 (ns)", "alone (ns)", "slowdown"});
  Table fairness({"device", "workload", "max slowdown", "Jain index"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& stats = results[i];
    if (!stats.is_multi_tenant()) continue;
    for (const auto& tenant : stats.tenants) {
      tenants.add_row({jobs[i].device.name, jobs[i].profile.name, tenant.name,
                       std::to_string(tenant.requests()),
                       Table::num(tenant.avg_latency_ns(), 1),
                       Table::num(tenant.latency_ns.p99(), 1),
                       Table::num(tenant.alone_avg_latency_ns, 1),
                       Table::num(tenant.slowdown, 3)});
    }
    fairness.add_row({jobs[i].device.name, jobs[i].profile.name,
                      Table::num(stats.max_slowdown, 3),
                      Table::num(stats.fairness_index, 3)});
  }
  if (tenants.rows() > 0) {
    os << "\n=== Tenant breakdown ===\n";
    if (csv) tenants.print_csv(os); else tenants.print(os);
    os << "\n=== Tenant fairness ===\n";
    if (csv) fairness.print_csv(os); else fairness.print(os);
  }
}

void print_host_profile(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers, bool csv) {
  if (!profilers) return;
  if (profilers->size() != jobs.size()) {
    throw std::invalid_argument("jobs/profilers size mismatch");
  }
  using util::Table;

  Table host({"device", "workload", "wall (s)", "req/s", "pool util",
              "push stalls", "pop waits", "queue max"});
  Table stages({"device", "workload", "stage", "calls", "wall (s)", "share"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const prof::Profiler* profiler = (*profilers)[i].get();
    if (!profiler || !profiler->spec().profiling()) continue;

    // Pool pressure aggregated across this record's pools (a hybrid run
    // has one pool per tier stage): utilization weighted by worker-time.
    double busy_s = 0.0, capacity_s = 0.0;
    std::uint64_t push_stalls = 0, pop_waits = 0;
    std::size_t queue_high_water = 0;
    for (const auto& pool : profiler->pools()) {
      push_stalls += pool->push_stalls;
      if (pool->queue_high_water > queue_high_water) {
        queue_high_water = pool->queue_high_water;
      }
      for (const auto& worker : pool->workers) {
        busy_s += worker.busy_s;
        pop_waits += worker.pop_waits;
      }
      capacity_s +=
          pool->wall_s * static_cast<double>(pool->workers.size());
    }
    const double utilization = capacity_s > 0.0 ? busy_s / capacity_s : 0.0;
    host.add_row({jobs[i].device.name, jobs[i].profile.name,
                  Table::num(profiler->wall_seconds(), 3),
                  Table::sci(profiler->requests_per_second(), 3),
                  Table::num(utilization, 3),
                  std::to_string(push_stalls), std::to_string(pop_waits),
                  std::to_string(queue_high_water)});

    const double wall_s = profiler->wall_seconds();
    for (const auto& [name, stage] : profiler->stages()) {
      stages.add_row({jobs[i].device.name, jobs[i].profile.name, name,
                      std::to_string(stage.calls),
                      Table::num(stage.wall_s, 3),
                      Table::num(wall_s > 0.0 ? stage.wall_s / wall_s : 0.0,
                                 3)});
    }
  }
  if (host.rows() == 0) return;

  os << "\n=== Host profile (wall clock; peak RSS "
     << prof::peak_rss_bytes() / (1024 * 1024) << " MiB) ===\n";
  if (csv) host.print_csv(os); else host.print(os);
  if (stages.rows() > 0) {
    os << "\n=== Host stage timings ===\n";
    if (csv) stages.print_csv(os); else stages.print(os);
  }
}

namespace {

void write_timeline_json(std::ostream& os,
                         const telemetry::Collector& collector) {
  os << "[";
  bool first = true;
  for (const auto& point : collector.timeline()) {
    os << (first ? "" : ", ") << "{"
       << "\"epoch\": " << point.epoch
       << ", \"start_ps\": " << point.start_ps
       << ", \"end_ps\": " << point.end_ps
       << ", \"reads\": " << point.reads
       << ", \"writes\": " << point.writes
       << ", \"bytes\": " << point.bytes
       << ", \"bandwidth_gbps\": " << json_number(point.bandwidth_gbps)
       << ", \"avg_latency_ns\": " << json_number(point.avg_latency_ns)
       << ", \"p50_latency_ns\": " << json_number(point.p50_latency_ns)
       << ", \"p95_latency_ns\": " << json_number(point.p95_latency_ns)
       << ", \"p99_latency_ns\": " << json_number(point.p99_latency_ns)
       << ", \"avg_read_queue_occupancy\": "
       << json_number(point.avg_read_queue_occupancy)
       << ", \"avg_write_queue_occupancy\": "
       << json_number(point.avg_write_queue_occupancy)
       << ", \"write_drains\": " << point.write_drains
       << ", \"drained_writes\": " << point.drained_writes
       << ", \"admit_stalls\": " << point.admit_stalls
       << ", \"bank_busy_ns\": " << json_number(point.bank_busy_ns)
       << ", \"channel_requests\": [";
    for (std::size_t c = 0; c < point.channel_requests.size(); ++c) {
      os << (c ? ", " : "") << point.channel_requests[c];
    }
    os << "]}";
    first = false;
  }
  os << "]";
}

/// The per-stage recording summary and channel×bank request heatmap.
void write_telemetry_json(std::ostream& os,
                          const telemetry::Collector& collector) {
  os << "{\"recorded_events\": " << collector.recorded_events()
     << ", \"dropped_events\": " << collector.dropped_events()
     << ", \"truncated\": " << (collector.truncated() ? "true" : "false")
     << ", \"stages\": [";
  bool first_stage = true;
  for (const auto& stage : collector.stages()) {
    os << (first_stage ? "" : ", ")
       << "{\"stage\": " << json_string(stage->stage())
       << ", \"channels\": " << stage->channels()
       << ", \"banks\": " << stage->banks()
       << ", \"recorded_events\": " << stage->recorded_events()
       << ", \"dropped_events\": " << stage->dropped_events()
       << ", \"bank_requests\": [";
    for (int c = 0; c < stage->channels(); ++c) {
      const auto& lane = stage->lane(c);
      os << (c ? ", " : "") << "[";
      for (std::size_t b = 0; b < lane.bank_requests.size(); ++b) {
        os << (b ? ", " : "") << lane.bank_requests[b];
      }
      os << "]";
    }
    os << "]}";
    first_stage = false;
  }
  os << "]}";
}

/// The whole-job host profile: wall clock, throughput, RSS, stage
/// timings and one entry per LanePool.
void write_host_json(std::ostream& os, const prof::Profiler& profiler,
                     const config::RunRecord& record) {
  os << "{";
  write_metrics(os, config::kHostMetrics.rows, record, /*lead=*/false);
  os << ", \"peak_rss_bytes\": " << prof::peak_rss_bytes()
     << ", \"stages\": [";
  bool first = true;
  for (const auto& [name, stage] : profiler.stages()) {
    os << (first ? "" : ", ") << "{\"stage\": " << json_string(name)
       << ", \"calls\": " << stage.calls
       << ", \"wall_s\": " << json_number(stage.wall_s) << "}";
    first = false;
  }
  os << "], \"pools\": [";
  bool first_pool = true;
  for (const auto& pool : profiler.pools()) {
    os << (first_pool ? "" : ", ") << "{\"stage\": " << json_string(pool->stage)
       << ", \"threads\": " << pool->threads
       << ", \"wall_s\": " << json_number(pool->wall_s)
       << ", \"utilization\": " << json_number(pool->utilization())
       << ", \"blocks_pushed\": " << pool->blocks_pushed
       << ", \"blocks_allocated\": " << pool->blocks_allocated
       << ", \"blocks_recycled\": " << pool->blocks_recycled
       << ", \"push_stalls\": " << pool->push_stalls
       << ", \"push_wait_s\": " << json_number(pool->push_wait_s)
       << ", \"queue_high_water\": " << pool->queue_high_water
       << ", \"lanes\": [";
    for (std::size_t l = 0; l < pool->lanes.size(); ++l) {
      const auto& lane = pool->lanes[l];
      os << (l ? ", " : "") << "{\"busy_s\": " << json_number(lane.busy_s)
         << ", \"blocks\": " << lane.blocks
         << ", \"requests\": " << lane.requests << "}";
    }
    os << "], \"workers\": [";
    for (std::size_t w = 0; w < pool->workers.size(); ++w) {
      const auto& worker = pool->workers[w];
      os << (w ? ", " : "") << "{\"busy_s\": " << json_number(worker.busy_s)
         << ", \"idle_s\": " << json_number(worker.idle_s)
         << ", \"pop_waits\": " << worker.pop_waits << "}";
    }
    os << "]}";
    first_pool = false;
  }
  os << "]}";
}

/// The SLO verdict: overall pass plus one check per predicate. A check
/// that was skipped (metric not applicable to this record) reports
/// applicable=false and pass=true so the reader can tell "held" from
/// "not measured".
void write_slo_json(std::ostream& os,
                    const std::vector<config::SloOutcome>& outcomes) {
  os << "{\"pass\": " << (config::slo_violated(outcomes) ? "false" : "true")
     << ", \"checks\": [";
  for (std::size_t c = 0; c < outcomes.size(); ++c) {
    const config::SloOutcome& outcome = outcomes[c];
    os << (c ? ", " : "")
       << "{\"predicate\": " << json_string(outcome.predicate.to_string())
       << ", \"metric\": " << json_string(outcome.predicate.metric)
       << ", \"threshold\": " << json_number(outcome.predicate.threshold)
       << ", \"value\": " << json_number(outcome.value)
       << ", \"applicable\": " << (outcome.applicable ? "true" : "false")
       << ", \"pass\": " << (outcome.pass ? "true" : "false") << "}";
  }
  os << "]}";
}

}  // namespace

void write_json(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<memsim::SimStats>& results,
    const std::vector<std::unique_ptr<telemetry::Collector>>* collectors,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers,
    const std::vector<std::vector<config::SloOutcome>>* slo) {
  if (jobs.size() != results.size()) {
    throw std::invalid_argument("jobs/results size mismatch");
  }
  if (collectors && collectors->size() != jobs.size()) {
    throw std::invalid_argument("jobs/collectors size mismatch");
  }
  if (profilers && profilers->size() != jobs.size()) {
    throw std::invalid_argument("jobs/profilers size mismatch");
  }
  if (slo && slo->size() != jobs.size()) {
    throw std::invalid_argument("jobs/slo size mismatch");
  }
  os << "{\n  \"bench\": \"comet_sim_sweep\",\n  \"results\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    const auto& stats = results[i];
    os << (i ? ",\n" : "\n") << "    {"
       << "\"device\": " << json_string(job.device.name)
       << ", \"workload\": " << json_string(job.profile.name)
       << ", \"channels\": " << job.device.channels()
       << ", \"requests\": " << job.requests
       << ", \"seed\": " << job.seed
       << ", \"line_bytes\": " << job.line_bytes
       << ", \"run_threads\": " << job.run_threads
       << ", \"trace_file\": " << json_string(job.trace_path)
       << ", \"experiment\": " << json_string(job.experiment)
       << ", \"config_file\": " << json_string(job.config_file);
    const prof::Profiler* profiler =
        profilers ? (*profilers)[i].get() : nullptr;
    const config::RunRecord record{
        stats, profiler ? profiler->wall_seconds() : 0.0};
    write_metrics(os, config::kRunMetrics.rows, record);
    os << ", \"hybrid\": " << (stats.is_hybrid() ? "true" : "false");
    write_metrics(os, config::kCacheMetrics.rows, record);
    // Every scheduler field lives under one "sched" object (null for
    // legacy runs), so a jq del(.results[].sched) compares a scheduled
    // run against the direct-replay path field for field.
    if (stats.is_scheduled() && job.controller) {
      const auto& c = *job.controller;
      os << ", \"sched\": {"
         << "\"policy\": " << json_string(stats.sched_policy)
         << ", \"read_queue_depth\": " << c.read_queue_depth
         << ", \"write_queue_depth\": " << c.write_queue_depth
         << ", \"drain_high_watermark\": " << c.drain_high_watermark
         << ", \"drain_low_watermark\": " << c.drain_low_watermark;
      write_metrics(os, config::kSchedMetrics.rows, record);
      os << "}";
    } else {
      os << ", \"sched\": null";
    }
    // Per-tenant fairness block, "sched"-style: null for single-stream
    // runs, so jq del(.results[].tenants) compares the two shapes.
    if (stats.is_multi_tenant()) {
      os << ", \"tenants\": {\"mapping\": "
         << json_string(config::tenant_mapping_name(job.tenant_mapping));
      write_metrics(os, config::kTenantMetrics.rows, record);
      os << ", \"streams\": [";
      for (std::size_t t = 0; t < stats.tenants.size(); ++t) {
        const auto& tenant = stats.tenants[t];
        os << (t ? ", " : "") << "{\"name\": " << json_string(tenant.name);
        write_metrics(os, config::rows::stream, tenant);
        os << "}";
      }
      os << "]}";
    } else {
      os << ", \"tenants\": null";
    }
    // Telemetry provenance: null when the feature is disabled, so
    // jq del(...) diffs traced against untraced reports cleanly.
    if (job.telemetry.tracing()) {
      os << ", \"trace_out\": " << json_string(job.telemetry.trace_path)
         << ", \"trace_limit\": " << job.telemetry.trace_limit;
    } else {
      os << ", \"trace_out\": null, \"trace_limit\": null";
    }
    if (job.telemetry.sampling()) {
      os << ", \"metrics_interval_ns\": "
         << job.telemetry.metrics_interval_ps / 1000;
    } else {
      os << ", \"metrics_interval_ns\": null";
    }
    if (!job.telemetry.metrics_csv.empty()) {
      os << ", \"metrics_csv\": " << json_string(job.telemetry.metrics_csv);
    } else {
      os << ", \"metrics_csv\": null";
    }
    const telemetry::Collector* collector =
        collectors ? (*collectors)[i].get() : nullptr;
    if (collector) {
      os << ", \"telemetry\": ";
      write_telemetry_json(os, *collector);
    } else {
      os << ", \"telemetry\": null";
    }
    if (collector && job.telemetry.sampling()) {
      os << ", \"timeline\": ";
      write_timeline_json(os, *collector);
    } else {
      os << ", \"timeline\": null";
    }
    // Host profile and SLO verdict, same null contract: --profile off
    // (or a heartbeat/gate-only profiler) keeps "host" null, no
    // --assert-slo keeps "slo" null.
    if (profiler && job.profile_spec.profiling()) {
      os << ", \"host\": ";
      write_host_json(os, *profiler, record);
    } else {
      os << ", \"host\": null";
    }
    if (slo && !(*slo)[i].empty()) {
      os << ", \"slo\": ";
      write_slo_json(os, (*slo)[i]);
    } else {
      os << ", \"slo\": null";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace comet::driver
