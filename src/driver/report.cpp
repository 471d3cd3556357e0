#include "driver/report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
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

/// `[a, b, ...]`, where `write` writes each element of `items`.
template <typename Items, typename Write>
void write_array(std::ostream& os, const Items& items, const Write& write) {
  os << "[";
  const char* sep = "";
  for (const auto& item : items) {
    os << sep;
    write(item);
    sep = ", ";
  }
  os << "]";
}

/// Throws "jobs/<what> size mismatch" unless `what` has `size` entries,
/// one per job.
void expect_size(const std::vector<SweepJob>& jobs, std::size_t size,
                 const char* what) {
  if (size != jobs.size()) {
    throw std::invalid_argument(std::string("jobs/") + what +
                                " size mismatch");
  }
}

// --- Console tables: a metric row's column is headed by its key, and
// --- its cells print integers in full and doubles to six digits.

std::string console_cell(std::uint64_t v) { return std::to_string(v); }
std::string console_cell(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// `labels`, then the key of each console row, then `trailing`.
template <typename Rows>
std::vector<std::string> console_heads(std::vector<std::string> labels,
                                       const Rows& rows,
                                       std::vector<std::string> trailing = {}) {
  for (const auto& row : rows) {
    if (row.console) labels.emplace_back(row.key);
  }
  labels.insert(labels.end(), trailing.begin(), trailing.end());
  return labels;
}

/// `labels`, then `v`'s cell of each console row, then `trailing`.
template <typename Rows, typename V>
std::vector<std::string> console_cells(std::vector<std::string> labels,
                                       const Rows& rows, const V& v,
                                       std::vector<std::string> trailing = {}) {
  for (const auto& row : rows) {
    if (!row.console) continue;
    labels.push_back(
        std::visit([&](auto get) { return console_cell(get(v)); }, row.get));
  }
  labels.insert(labels.end(), trailing.begin(), trailing.end());
  return labels;
}

/// One console row per record that measured `block`: its label and
/// workload (and, with `policy`, its scheduling policy), then the
/// block's console rows.
util::Table block_table(const config::MetricBlock& block,
                        const std::vector<SweepJob>& jobs,
                        const std::vector<memsim::SimStats>& results,
                        const std::vector<std::string>& labels,
                        bool policy = false) {
  std::vector<std::string> heads{"device", "workload"};
  if (policy) heads.emplace_back("policy");
  util::Table table(console_heads(heads, block.rows));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const config::RunRecord record{results[i]};
    if (block.measured && !block.measured(record)) continue;
    std::vector<std::string> cells{labels[i], jobs[i].profile.name};
    if (policy) cells.push_back(results[i].sched_policy);
    table.add_row(console_cells(std::move(cells), block.rows, record));
  }
  return table;
}

/// "=== title ===", the table (CSV with `csv`) and a blank line; nothing
/// for an empty table.
void print_section(std::ostream& os, const std::string& title,
                   const util::Table& table, bool csv) {
  if (table.rows() == 0) return;
  os << "=== " << title << " ===\n";
  if (csv) table.print_csv(os); else table.print(os);
  os << "\n";
}

}  // namespace

std::vector<std::string> record_labels(const std::vector<SweepJob>& jobs) {
  // The axes a label may name after the device, as the label spells them.
  const auto axes = [](const SweepJob& job) {
    return std::array<std::string, 4>{
        job.controller ? sched::policy_name(job.controller->policy) : "",
        std::to_string(job.device.channels()) + " ch",
        std::to_string(job.requests) + " req",
        "seed " + std::to_string(job.seed)};
  };
  // A label names an axis only when some device takes several values of
  // it, so sweeps without those axes keep the bare device name.
  std::array<std::set<std::pair<std::string, std::string>>, 4> seen;
  std::set<std::string> devices;
  for (const auto& job : jobs) {
    devices.insert(job.device.name);
    const auto values = axes(job);
    for (std::size_t a = 0; a < values.size(); ++a) {
      seen[a].emplace(job.device.name, values[a]);
    }
  }
  std::vector<std::string> labels;
  for (const auto& job : jobs) {
    std::string label = job.device.name;
    const char* sep = " (";
    const auto values = axes(job);
    for (std::size_t a = 0; a < values.size(); ++a) {
      if (seen[a].size() == devices.size()) continue;
      label += sep + values[a];
      sep = ", ";
    }
    labels.push_back(*sep == ',' ? label + ")" : label);
  }
  return labels;
}

void print_report(std::ostream& os, const std::vector<SweepJob>& jobs,
                  const std::vector<memsim::SimStats>& results, bool csv) {
  expect_size(jobs, results.size(), "results");
  const auto labels = record_labels(jobs);
  const auto& run = config::kRunMetrics.rows;
  print_section(os, "Per-run results",
                block_table(config::kRunMetrics, jobs, results, labels),
                csv);

  // One summary row per label: the per-run columns averaged over the
  // label's workloads, then mean bandwidth over mean EPB (Fig. 9c).
  std::vector<std::string> label_order;
  std::map<std::string, std::vector<const memsim::SimStats*>> runs_of;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto& runs = runs_of[labels[i]];
    if (runs.empty()) label_order.push_back(labels[i]);
    runs.push_back(&results[i]);
  }
  util::Table summary(console_heads({"device"}, run,
                                    {"bandwidth_gbps/energy_pj_per_bit"}));
  for (const auto& label : label_order) {
    const auto& runs = runs_of.at(label);
    const auto mean = [&](const auto& get) {
      double sum = 0.0;
      for (const memsim::SimStats* stats : runs) sum += get(*stats);
      return sum / static_cast<double>(runs.size());
    };
    std::vector<std::string> cells{label};
    for (const auto& row : run) {
      if (!row.console) continue;
      cells.push_back(console_cell(mean([&](const memsim::SimStats& stats) {
        return row.value(config::RunRecord{stats});
      })));
    }
    const double bw = mean(std::mem_fn(&memsim::SimStats::bandwidth_gbps));
    const double epb = mean(std::mem_fn(&memsim::SimStats::epb_pj_per_bit));
    cells.push_back(console_cell(epb > 0 ? bw / epb : 0.0));
    summary.add_row(std::move(cells));
  }
  print_section(os, "Per-device averages over workloads", summary, csv);

  // Hybrid runs get a tier breakdown, scheduled runs the controller
  // breakdown and multi-tenant runs the fairness breakdown, so the flat
  // columns above stay comparable across all devices.
  print_section(os, "Hybrid tier breakdown",
                block_table(config::kCacheMetrics, jobs, results, labels),
                csv);
  print_section(os, "Scheduler breakdown",
                block_table(config::kSchedMetrics, jobs, results, labels,
                            /*policy=*/true),
                csv);
  util::Table streams(
      console_heads({"device", "workload", "tenant"}, config::rows::stream));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (const auto& tenant : results[i].tenants) {
      streams.add_row(
          console_cells({labels[i], jobs[i].profile.name, tenant.name},
                        config::rows::stream, tenant));
    }
  }
  print_section(os, "Tenant breakdown", streams, csv);
  print_section(os, "Tenant fairness",
                block_table(config::kTenantMetrics, jobs, results, labels),
                csv);
}

void print_host_profile(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<memsim::SimStats>& results,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers, bool csv) {
  if (!profilers) return;
  expect_size(jobs, results.size(), "results");
  expect_size(jobs, profilers->size(), "profilers");
  const auto labels = record_labels(jobs);
  util::Table host(console_heads({"device", "workload"},
                                 config::kHostMetrics.rows,
                                 {"utilization", "push_stalls", "pop_waits",
                                  "queue_high_water"}));
  util::Table stages(
      {"device", "workload", "stage", "calls", "wall_s", "share"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const prof::Profiler* profiler = (*profilers)[i].get();
    if (!profiler || !profiler->spec().profiling()) continue;

    // Pool pressure aggregated across this record's pools (a hybrid run
    // has one pool per tier stage): utilization weighted by worker-time.
    double busy_s = 0.0, capacity_s = 0.0;
    std::uint64_t push_stalls = 0, pop_waits = 0, queue_high_water = 0;
    for (const auto& pool : profiler->pools()) {
      push_stalls += pool->push_stalls;
      queue_high_water =
          std::max<std::uint64_t>(queue_high_water, pool->queue_high_water);
      for (const auto& worker : pool->workers) {
        busy_s += worker.busy_s;
        pop_waits += worker.pop_waits;
      }
      capacity_s +=
          pool->wall_s * static_cast<double>(pool->workers.size());
    }
    const double utilization = capacity_s > 0.0 ? busy_s / capacity_s : 0.0;
    const double wall_s = profiler->wall_seconds();
    host.add_row(console_cells(
        {labels[i], jobs[i].profile.name}, config::kHostMetrics.rows,
        config::RunRecord{results[i], wall_s},
        {console_cell(utilization), console_cell(push_stalls),
         console_cell(pop_waits), console_cell(queue_high_water)}));

    for (const auto& [name, stage] : profiler->stages()) {
      stages.add_row({labels[i], jobs[i].profile.name, name,
                      console_cell(stage.calls), console_cell(stage.wall_s),
                      console_cell(wall_s > 0.0 ? stage.wall_s / wall_s
                                                : 0.0)});
    }
  }
  if (host.rows() == 0) return;
  print_section(os,
                "Host profile (wall clock; peak RSS " +
                    std::to_string(prof::peak_rss_bytes() / (1024 * 1024)) +
                    " MiB)",
                host, csv);
  print_section(os, "Host stage timings", stages, csv);
}

namespace {

void write_timeline_json(std::ostream& os,
                         const telemetry::Collector& collector) {
  write_array(os, collector.timeline(), [&](const auto& point) {
    os << "{\"epoch\": " << point.epoch << ", \"start_ps\": " << point.start_ps
       << ", \"end_ps\": " << point.end_ps;
    write_metrics(os, telemetry::kTimelineMetrics, point);
    os << ", \"channel_requests\": ";
    write_array(os, point.channel_requests, [&](auto n) { os << n; });
    os << "}";
  });
}

/// The per-stage recording summary and channel×bank request heatmap.
void write_telemetry_json(std::ostream& os,
                          const telemetry::Collector& collector) {
  os << "{\"recorded_events\": " << collector.recorded_events()
     << ", \"dropped_events\": " << collector.dropped_events()
     << ", \"truncated\": " << (collector.truncated() ? "true" : "false")
     << ", \"stages\": ";
  write_array(os, collector.stages(), [&](const auto& stage) {
    os << "{\"stage\": " << json_string(stage->stage())
       << ", \"channels\": " << stage->channels()
       << ", \"banks\": " << stage->banks()
       << ", \"recorded_events\": " << stage->recorded_events()
       << ", \"dropped_events\": " << stage->dropped_events()
       << ", \"bank_requests\": [";
    for (int c = 0; c < stage->channels(); ++c) {
      os << (c ? ", " : "");
      write_array(os, stage->lane(c).bank_requests, [&](auto n) { os << n; });
    }
    os << "]}";
  });
  os << "}";
}

/// The whole-job host profile: wall clock, throughput, RSS, stage
/// timings and one entry per LanePool.
void write_host_json(std::ostream& os, const prof::Profiler& profiler,
                     const config::RunRecord& record) {
  os << "{";
  write_metrics(os, config::kHostMetrics.rows, record, /*lead=*/false);
  os << ", \"peak_rss_bytes\": " << prof::peak_rss_bytes() << ", \"stages\": ";
  write_array(os, profiler.stages(), [&](const auto& named) {
    os << "{\"stage\": " << json_string(named.first)
       << ", \"calls\": " << named.second.calls
       << ", \"wall_s\": " << json_number(named.second.wall_s) << "}";
  });
  os << ", \"pools\": ";
  write_array(os, profiler.pools(), [&](const auto& pool) {
    os << "{\"stage\": " << json_string(pool->stage)
       << ", \"threads\": " << pool->threads
       << ", \"wall_s\": " << json_number(pool->wall_s)
       << ", \"utilization\": " << json_number(pool->utilization())
       << ", \"blocks_pushed\": " << pool->blocks_pushed
       << ", \"blocks_allocated\": " << pool->blocks_allocated
       << ", \"blocks_recycled\": " << pool->blocks_recycled
       << ", \"push_stalls\": " << pool->push_stalls
       << ", \"push_wait_s\": " << json_number(pool->push_wait_s)
       << ", \"queue_high_water\": " << pool->queue_high_water
       << ", \"lanes\": ";
    write_array(os, pool->lanes, [&](const auto& lane) {
      os << "{\"busy_s\": " << json_number(lane.busy_s)
         << ", \"blocks\": " << lane.blocks
         << ", \"requests\": " << lane.requests << "}";
    });
    os << ", \"workers\": ";
    write_array(os, pool->workers, [&](const auto& worker) {
      os << "{\"busy_s\": " << json_number(worker.busy_s)
         << ", \"idle_s\": " << json_number(worker.idle_s)
         << ", \"pop_waits\": " << worker.pop_waits << "}";
    });
    os << "}";
  });
  os << "}";
}

/// The SLO verdict: overall pass plus one check per predicate. A check
/// that was skipped (metric not applicable to this record) reports
/// applicable=false and pass=true so the reader can tell "held" from
/// "not measured".
void write_slo_json(std::ostream& os,
                    const std::vector<config::SloOutcome>& outcomes) {
  os << "{\"pass\": " << (config::slo_violated(outcomes) ? "false" : "true")
     << ", \"checks\": ";
  write_array(os, outcomes, [&](const config::SloOutcome& outcome) {
    os << "{\"predicate\": " << json_string(outcome.predicate.to_string())
       << ", \"metric\": " << json_string(outcome.predicate.metric)
       << ", \"threshold\": " << json_number(outcome.predicate.threshold)
       << ", \"value\": " << json_number(outcome.value)
       << ", \"applicable\": " << (outcome.applicable ? "true" : "false")
       << ", \"pass\": " << (outcome.pass ? "true" : "false") << "}";
  });
  os << "}";
}

/// `, "key": ` and then what `write` writes, or `null` when `present`
/// is false.
template <typename Write>
void write_nullable(std::ostream& os, const char* key, bool present,
                    const Write& write) {
  os << ", \"" << key << "\": ";
  if (present) write(); else os << "null";
}

}  // namespace

void write_json(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<memsim::SimStats>& results,
    const std::vector<std::unique_ptr<telemetry::Collector>>* collectors,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers,
    const std::vector<std::vector<config::SloOutcome>>* slo) {
  expect_size(jobs, results.size(), "results");
  if (collectors) expect_size(jobs, collectors->size(), "collectors");
  if (profilers) expect_size(jobs, profilers->size(), "profilers");
  if (slo) expect_size(jobs, slo->size(), "slo");
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
    write_nullable(os, "sched", stats.is_scheduled() && job.controller, [&] {
      const auto& c = *job.controller;
      os << "{\"policy\": " << json_string(stats.sched_policy)
         << ", \"read_queue_depth\": " << c.read_queue_depth
         << ", \"write_queue_depth\": " << c.write_queue_depth
         << ", \"drain_high_watermark\": " << c.drain_high_watermark
         << ", \"drain_low_watermark\": " << c.drain_low_watermark;
      write_metrics(os, config::kSchedMetrics.rows, record);
      os << "}";
    });
    // Per-tenant fairness block, "sched"-style: null for single-stream
    // runs, so jq del(.results[].tenants) compares the two shapes.
    write_nullable(os, "tenants", stats.is_multi_tenant(), [&] {
      os << "{\"mapping\": "
         << json_string(config::tenant_mapping_name(job.tenant_mapping));
      write_metrics(os, config::kTenantMetrics.rows, record);
      os << ", \"streams\": ";
      write_array(os, stats.tenants, [&](const auto& tenant) {
        os << "{\"name\": " << json_string(tenant.name);
        write_metrics(os, config::rows::stream, tenant);
        os << "}";
      });
      os << "}";
    });
    // Telemetry provenance: null when the feature is disabled, so
    // jq del(...) diffs traced against untraced reports cleanly.
    const auto& spec = job.telemetry;
    write_nullable(os, "trace_out", spec.tracing(),
                   [&] { os << json_string(spec.trace_path); });
    write_nullable(os, "trace_limit", spec.tracing(),
                   [&] { os << spec.trace_limit; });
    write_nullable(os, "metrics_interval_ns", spec.sampling(),
                   [&] { os << spec.metrics_interval_ps / 1000; });
    write_nullable(os, "metrics_csv", !spec.metrics_csv.empty(),
                   [&] { os << json_string(spec.metrics_csv); });
    const telemetry::Collector* collector =
        collectors ? (*collectors)[i].get() : nullptr;
    write_nullable(os, "telemetry", collector,
                   [&] { write_telemetry_json(os, *collector); });
    write_nullable(os, "timeline", collector && spec.sampling(),
                   [&] { write_timeline_json(os, *collector); });
    // Host profile and SLO verdict, same null contract: --profile off
    // (or a heartbeat/gate-only profiler) keeps "host" null, no
    // --assert-slo keeps "slo" null.
    write_nullable(os, "host", profiler && job.profile_spec.profiling(),
                   [&] { write_host_json(os, *profiler, record); });
    write_nullable(os, "slo", slo && !(*slo)[i].empty(),
                   [&] { write_slo_json(os, (*slo)[i]); });
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace comet::driver
