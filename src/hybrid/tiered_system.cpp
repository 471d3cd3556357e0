#include "hybrid/tiered_system.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "memsim/sharded.hpp"
#include "memsim/system.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace comet::hybrid {

void TieredConfig::validate() const {
  if (name.empty()) throw std::invalid_argument("TieredConfig: empty name");
  cache.validate();
  dram.validate();
  backend.validate();
  if (cache.capacity_bytes >= backend.capacity_bytes) {
    throw std::invalid_argument(
        "TieredConfig: cache capacity must be smaller than the backend");
  }
}

memsim::DeviceModel dram_cache_tier_model(std::uint64_t capacity_bytes) {
  // HBM-class stacked DRAM with a streaming cache controller: 256 B
  // burst granularity (a 2 KB fill is eight back-to-back beats in one
  // row, not 32 closed-page row cycles) and a deeper MSHR window than
  // the conservative main-memory controllers the paper evaluates.
  memsim::DeviceModel model;
  model.name = "DRAM-cache";
  model.capacity_bytes = capacity_bytes;

  auto& t = model.timing;
  t.channels = 4;
  t.banks_per_channel = 16;
  t.line_bytes = 256;
  t.read_occupancy_ps = util::ns_to_ps(15.0);
  t.write_occupancy_ps = util::ns_to_ps(15.0);
  t.burst_ps = util::ns_to_ps(4.0);  // 256 B at ~64 GB/s per channel
  t.interface_ps = util::ns_to_ps(6.0);
  t.has_row_buffer = true;
  t.row_size_bytes = 8192;
  t.row_hit_saving_ps = util::ns_to_ps(10.0);
  t.refresh_interval_ps = util::ns_to_ps(7800.0);
  t.refresh_duration_ps = util::ns_to_ps(350.0);
  t.queue_depth = 16;

  auto& e = model.energy;
  e.read_pj_per_bit = 4.0;
  e.write_pj_per_bit = 5.0;
  // Refresh/peripheral background power scales with the retained array
  // size (0.35 W for a full 8 GB HBM-class stack); the tag-match and
  // controller logic is a fixed floor.
  constexpr double kControllerFloorW = 0.05;
  constexpr double kFullStackPowerW = 0.35;
  constexpr double kFullStackBytes = 8ull << 30;
  e.background_power_w =
      kControllerFloorW +
      kFullStackPowerW * static_cast<double>(capacity_bytes) / kFullStackBytes;
  return model;
}

TieredConfig make_tiered_config(const std::string& name,
                                memsim::DeviceModel backend,
                                const DramCacheConfig& cache) {
  TieredConfig config;
  config.name = name;
  config.cache = cache;
  config.dram = dram_cache_tier_model(cache.capacity_bytes);
  config.backend = std::move(backend);
  config.validate();
  return config;
}

TieredSystem::TieredSystem(TieredConfig config)
    : TieredSystem(std::move(config), std::nullopt) {}

TieredSystem::TieredSystem(
    TieredConfig config,
    std::optional<sched::ControllerConfig> backend_controller,
    int run_threads)
    : config_(std::move(config)),
      backend_controller_(std::move(backend_controller)),
      run_threads_(memsim::resolve_run_threads(run_threads)) {
  config_.validate();
  if (backend_controller_) backend_controller_->validate();
}

TieredStats TieredSystem::run_tiered(memsim::RequestSource& source,
                                     const std::string& workload_name) const {
  using memsim::Op;
  using memsim::Request;

  TieredStats stats;
  stats.combined.device_name = config_.name;
  stats.combined.workload_name = workload_name;
  stats.combined.hybrid = true;

  // Filter the demand stream through the cache tag model, routing the
  // derived traffic straight into one replay lane per tier channel
  // (memsim::run_sharded; tier kDram then kBackend). Derived requests
  // reuse the demand arrival time and are emitted in demand order, so
  // both sub-streams inherit the sorted-stream contract. The tag state
  // is global across channels, so the filter itself stays on this
  // thread whatever run_threads says.
  DramCache cache(config_.cache);
  const std::uint32_t line_bytes = config_.cache.line_bytes;
  const memsim::MemorySystem dram_system(config_.dram);
  const memsim::MemorySystem backend_system(config_.backend);
  // Per-tier telemetry stages: the event budget splits evenly between
  // the tiers (an unlimited budget stays unlimited on both).
  const std::uint64_t limit =
      telemetry() ? telemetry()->spec().trace_limit : 0;
  const auto share = [limit](std::uint64_t part) {
    return limit == 0 ? std::nullopt : std::optional<std::uint64_t>(part);
  };
  telemetry::Recorder* dram_recorder =
      telemetry_stage(config_.dram.timing, "dram", share(limit / 2));
  telemetry::Recorder* backend_recorder = telemetry_stage(
      config_.backend.timing, "backend", share(limit - limit / 2));
  std::vector<memsim::LaneTier> tiers;
  tiers.push_back(memsim::make_tier(dram_system, [&] {
    return std::make_unique<memsim::ReplaySession>(dram_system, workload_name,
                                                   dram_recorder);
  }));
  tiers.push_back(memsim::make_tier(
      backend_system, [&]() -> std::unique_ptr<memsim::ShardLane> {
        if (backend_controller_) {
          return std::make_unique<sched::Controller>(
              backend_system, *backend_controller_, workload_name,
              backend_recorder);
        }
        return std::make_unique<memsim::ReplaySession>(
            backend_system, workload_name, backend_recorder);
      }));
  enum : std::size_t { kDram, kBackend };
  // Derived-request ids live in their own (top-bit) namespace, above any
  // realistic demand id space, for traceability.
  std::uint64_t next_id = 1ull << 63;

  auto& c = stats.combined;
  std::uint64_t demand_start = 0;
  const auto process_demand = [&](const Request& req, auto& emit) {
    if (c.reads + c.writes == 0) demand_start = req.arrival_ps;

    const bool is_write = req.op == Op::kWrite;
    if (is_write) {
      ++c.writes;
    } else {
      ++c.reads;
    }
    c.bytes_transferred += req.size_bytes;
    // Per-tenant demand counts, at the filter like the totals above, so
    // they sum to reads + writes (the tiers also count carry traffic).
    if (req.tenant != 0) {
      if (c.tenants.size() < req.tenant) c.tenants.resize(req.tenant);
      memsim::TenantBreakdown& tenant = c.tenants[req.tenant - 1u];
      if (is_write) {
        ++tenant.writes;
      } else {
        ++tenant.reads;
      }
      tenant.bytes_transferred += req.size_bytes;
    }

    // One demand request may straddle several (coarse) cache lines.
    const std::uint64_t demand_end =
        req.address + std::max<std::uint64_t>(req.size_bytes, 1);
    const std::uint64_t first_line = req.address / line_bytes;
    const std::uint64_t last_line = (demand_end - 1) / line_bytes;
    for (std::uint64_t line = first_line; line <= last_line; ++line) {
      const std::uint64_t line_address = line * line_bytes;
      const auto outcome = cache.access(line_address, is_write);

      // Derived traffic inherits the demand's tenant, so the tiers'
      // per-tenant latency and a fairness-aware backend controller both
      // see whose request caused it.
      const auto derive = [&](std::size_t tier, Op op, std::uint64_t address,
                              std::uint32_t size, std::uint64_t id) {
        emit(tier, Request{.id = id,
                           .arrival_ps = req.arrival_ps,
                           .op = op,
                           .address = address,
                           .size_bytes = size,
                           .tenant = req.tenant});
      };
      // The demand bytes falling inside this cache line; fills, fetches
      // and writebacks always move the whole (coarse) line.
      const std::uint32_t portion = static_cast<std::uint32_t>(
          std::min(demand_end, line_address + line_bytes) -
          std::max(req.address, line_address));

      if (outcome.hit) {
        ++c.cache_hits;
        derive(kDram, req.op, std::max(req.address, line_address), portion,
               req.id);
        continue;
      }
      ++c.cache_misses;
      if (outcome.fill) {
        ++c.cache_fills;
        // The backend supplies the line (the latency path of a read
        // miss; the fetch-on-write of a write-allocate miss) and the
        // DRAM tier absorbs the fill. Installing the fetched line is an
        // array *write* whatever the demand op was. A demand write that
        // covers the whole line needs no fetch — every fetched byte
        // would be overwritten.
        if (!(is_write && portion == line_bytes)) {
          derive(kBackend, Op::kRead, line_address, line_bytes, req.id);
        }
        derive(kDram, Op::kWrite, line_address, line_bytes, next_id++);
      } else {
        // Write-no-allocate miss: the demand write goes straight down.
        derive(kBackend, Op::kWrite, std::max(req.address, line_address),
               portion, req.id);
      }
      if (outcome.writeback) {
        ++c.writebacks;
        derive(kBackend, Op::kWrite, outcome.writeback_address, line_bytes,
               next_id++);
      }
    }
  };

  std::vector<memsim::ReplaySlice> slices =
      memsim::run_sharded(std::move(tiers), run_threads_, source, profiler(),
                          "tiers", process_demand);
  const std::uint64_t dram_first = slices[kDram].first_arrival_ps;
  const std::uint64_t backend_first = slices[kBackend].first_arrival_ps;
  const bool dram_served = slices[kDram].fed > 0;
  const bool backend_served = slices[kBackend].fed > 0;
  stats.dram = memsim::finalize_slice(std::move(slices[kDram]), config_.dram);
  stats.backend =
      memsim::finalize_slice(std::move(slices[kBackend]), config_.backend);

  // The demand wall-clock: first demand arrival to the last completion
  // of either tier. Each tier's span is anchored at its own sub-stream's
  // first arrival, so recover the absolute last-completion instants.
  std::uint64_t last_completion = demand_start;
  if (dram_served) {
    last_completion =
        std::max(last_completion, dram_first + stats.dram.span_ps);
  }
  if (backend_served) {
    last_completion =
        std::max(last_completion, backend_first + stats.backend.span_ps);
  }

  // Both tiers are powered for the whole run, but each replay charged
  // its always-on background power over its own (possibly much shorter,
  // possibly empty) sub-stream span only — top it up over the idle
  // remainder. Activity-gated power stays off while idle by definition.
  const std::uint64_t combined_span = last_completion - demand_start;
  const auto top_up = [combined_span](memsim::SimStats& tier,
                                      const memsim::DeviceModel& model) {
    tier.background_energy_pj +=
        model.energy.background_power_w *
        static_cast<double>(combined_span - tier.span_ps);
  };
  top_up(stats.dram, config_.dram);
  top_up(stats.backend, config_.backend);

  // Merge the tier replays into the combined demand-level view. Latency
  // distributions include the carry traffic (fills, fetches,
  // writebacks) each tier served; bytes_transferred counts demand bytes
  // only, so bandwidth and EPB are per *demand* byte/bit while energy
  // honestly includes the tier-maintenance traffic.
  c.span_ps = combined_span;
  c.read_latency_ns = stats.dram.read_latency_ns;
  c.read_latency_ns.merge(stats.backend.read_latency_ns);
  c.write_latency_ns = stats.dram.write_latency_ns;
  c.write_latency_ns.merge(stats.backend.write_latency_ns);
  c.queue_delay_ns = stats.dram.queue_delay_ns;
  c.queue_delay_ns.merge(stats.backend.queue_delay_ns);
  // Per-tenant latency by the same rule. Every derived request carries
  // a demand tenant, so neither tier knows a tenant the filter did not.
  for (std::size_t i = 0; i < c.tenants.size(); ++i) {
    for (const memsim::SimStats* tier : {&stats.dram, &stats.backend}) {
      if (i < tier->tenants.size()) {
        c.tenants[i].latency_ns.merge(tier->tenants[i].latency_ns);
      }
    }
  }
  c.dynamic_energy_pj =
      stats.dram.dynamic_energy_pj + stats.backend.dynamic_energy_pj;
  c.background_energy_pj =
      stats.dram.background_energy_pj + stats.backend.background_energy_pj;
  c.total_bank_busy_ns =
      stats.dram.total_bank_busy_ns + stats.backend.total_bank_busy_ns;
  c.dram_tier_energy_pj =
      stats.dram.dynamic_energy_pj + stats.dram.background_energy_pj;
  c.backend_tier_energy_pj =
      stats.backend.dynamic_energy_pj + stats.backend.background_energy_pj;
  // A scheduled backend's controller breakdown surfaces on the combined
  // view (the DRAM tier is always direct, so there is only one).
  if (stats.backend.is_scheduled()) {
    c.scheduled = true;
    c.sched_policy = stats.backend.sched_policy;
    c.sched_queue_delay_ns = stats.backend.sched_queue_delay_ns;
    c.service_latency_ns = stats.backend.service_latency_ns;
    c.read_queue_occupancy = stats.backend.read_queue_occupancy;
    c.write_queue_occupancy = stats.backend.write_queue_occupancy;
    c.write_drains = stats.backend.write_drains;
    c.drained_writes = stats.backend.drained_writes;
    c.drain_stalls = stats.backend.drain_stalls;
    c.admit_stalls = stats.backend.admit_stalls;
  }
  return stats;
}

TieredStats TieredSystem::run_tiered(
    const std::vector<memsim::Request>& requests,
    const std::string& workload_name) const {
  memsim::VectorSource source(requests);
  return run_tiered(source, workload_name);
}

memsim::SimStats TieredSystem::run(memsim::RequestSource& source,
                                   const std::string& workload_name) const {
  return run_tiered(source, workload_name).combined;
}

}  // namespace comet::hybrid
