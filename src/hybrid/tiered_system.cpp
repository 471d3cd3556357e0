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

  // What only the filter knows: the demand-level counts (the tiers also
  // count carry traffic) and the cache outcomes.
  memsim::SimStats demand;
  std::uint64_t demand_start = 0;
  const auto process_demand = [&](const Request& req, auto& emit) {
    if (demand.reads + demand.writes == 0) demand_start = req.arrival_ps;

    const bool is_write = req.op == Op::kWrite;
    if (is_write) {
      ++demand.writes;
    } else {
      ++demand.reads;
    }
    demand.bytes_transferred += req.size_bytes;
    // Per-tenant demand counts, at the filter like the totals above, so
    // they sum to reads + writes.
    if (req.tenant != 0) {
      if (demand.tenants.size() < req.tenant) {
        demand.tenants.resize(req.tenant);
      }
      memsim::TenantBreakdown& tenant = demand.tenants[req.tenant - 1u];
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
        ++demand.cache_hits;
        derive(kDram, req.op, std::max(req.address, line_address), portion,
               req.id);
        continue;
      }
      ++demand.cache_misses;
      if (outcome.fill) {
        ++demand.cache_fills;
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
        ++demand.writebacks;
        derive(kBackend, Op::kWrite, outcome.writeback_address, line_bytes,
               next_id++);
      }
    }
  };

  std::vector<memsim::ReplaySlice> slices =
      memsim::run_sharded(std::move(tiers), run_threads_, source, profiler(),
                          "tiers", process_demand);

  // Merge the finalized tier replays into the combined demand-level
  // view, starting from an empty slice: latency distributions (per
  // tenant too), dynamic energy, bank busy time and a scheduled
  // backend's controller breakdown (the DRAM tier is always direct, so
  // there is only one) all reduce by the one merge_slice rule, and the
  // merged window ends at the last completion of either tier.
  memsim::ReplaySlice merged;
  merged.stats.device_name = config_.name;
  merged.stats.workload_name = workload_name;
  const memsim::DeviceModel* models[] = {&config_.dram, &config_.backend};
  for (const std::size_t tier : {kDram, kBackend}) {
    memsim::ReplaySlice& slice = slices[tier];
    slice.stats = memsim::finalize_slice(std::move(slice), *models[tier]);
    memsim::merge_slice(merged, slice);
  }

  // The demand wall-clock: first demand arrival to the last completion
  // of either tier.
  const std::uint64_t combined_span =
      std::max(demand_start, merged.last_completion_ps) - demand_start;

  // Both tiers are powered for the whole run, but each replay charged
  // its always-on background power over its own (possibly much shorter,
  // possibly empty) sub-stream span only — top it up over the idle
  // remainder. Activity-gated power stays off while idle by definition.
  TieredStats stats;
  stats.dram = std::move(slices[kDram].stats);
  stats.backend = std::move(slices[kBackend].stats);
  const auto top_up = [combined_span](memsim::SimStats& tier,
                                      const memsim::DeviceModel& model) {
    tier.background_energy_pj +=
        model.energy.background_power_w *
        static_cast<double>(combined_span - tier.span_ps);
    return tier.dynamic_energy_pj + tier.background_energy_pj;
  };

  // What the tiers cannot know. Latency distributions include the carry
  // traffic (fills, fetches, writebacks) each tier served, but
  // bytes_transferred counts demand bytes only, so bandwidth and EPB
  // are per *demand* byte/bit while energy honestly includes the
  // tier-maintenance traffic. Every derived request carries a demand
  // tenant, so neither tier knows a tenant the filter did not.
  memsim::SimStats& c = stats.combined;
  c = std::move(merged.stats);
  c.hybrid = true;
  c.reads = demand.reads;
  c.writes = demand.writes;
  c.bytes_transferred = demand.bytes_transferred;
  c.tenants.resize(demand.tenants.size());
  for (std::size_t i = 0; i < demand.tenants.size(); ++i) {
    c.tenants[i].reads = demand.tenants[i].reads;
    c.tenants[i].writes = demand.tenants[i].writes;
    c.tenants[i].bytes_transferred = demand.tenants[i].bytes_transferred;
  }
  c.cache_hits = demand.cache_hits;
  c.cache_misses = demand.cache_misses;
  c.cache_fills = demand.cache_fills;
  c.writebacks = demand.writebacks;
  c.span_ps = combined_span;
  c.dram_tier_energy_pj = top_up(stats.dram, config_.dram);
  c.backend_tier_energy_pj = top_up(stats.backend, config_.backend);
  c.background_energy_pj =
      stats.dram.background_energy_pj + stats.backend.background_energy_pj;
  return stats;
}

memsim::SimStats TieredSystem::run(memsim::RequestSource& source,
                                   const std::string& workload_name) const {
  return run_tiered(source, workload_name).combined;
}

}  // namespace comet::hybrid
