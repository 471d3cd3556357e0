#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <optional>

#include "hybrid/dram_cache.hpp"
#include "memsim/device.hpp"
#include "memsim/engine.hpp"
#include "memsim/request.hpp"
#include "memsim/source.hpp"
#include "memsim/stats.hpp"
#include "sched/controller.hpp"

/// Hybrid tiered-memory subsystem: a DRAM cache in front of an OPCM /
/// EPCM / COSMOS main-memory backend (the HybridSim-style architecture
/// question posed by the data-content-aware PCM literature).
///
/// The TieredSystem is cycle-approximate by composition: the DramCache
/// tag model splits the demand stream into a DRAM-tier stream (hits and
/// fills) and a backend stream (demand misses, write-allocate fetches,
/// dirty-eviction writebacks), each derived request inheriting the
/// arrival time and tenant of the demand request that caused it — so
/// both sub-streams stay sorted and per-tenant accounting survives the
/// split. The split is fully streaming: memsim::run_sharded pumps the
/// demand requests one at a time through the cache filter, its route,
/// which feeds the derived traffic straight into per-channel replay
/// lanes of both tiers, so neither the demand
/// trace nor either sub-stream is ever materialized (O(1) memory, like
/// the flat engine).
namespace comet::hybrid {

/// One hybrid design point: a DRAM cache tier fronting a backend.
struct TieredConfig {
  std::string name;            ///< Registry token, e.g. "hybrid-comet".
  DramCacheConfig cache;
  memsim::DeviceModel dram;    ///< The cache-tier device (DRAM-class).
  memsim::DeviceModel backend; ///< The main-memory device behind it.

  /// Validates all three components; additionally rejects an empty name
  /// and a cache at least as large as the backend (that is not a cache).
  void validate() const;
  bool operator==(const TieredConfig&) const = default;
};

/// Per-tier view of one tiered replay. `combined` is what the driver
/// reports: demand-stream reads/writes/bytes (per tenant too, for a
/// tagged stream), merged latency distributions (per tenant by the same
/// rule), summed energy, and the cache hit/writeback breakdown in the
/// SimStats hybrid fields.
struct TieredStats {
  memsim::SimStats combined;
  memsim::SimStats dram;     ///< DRAM-tier replay (hits + fills).
  memsim::SimStats backend;  ///< Backend replay (misses + writebacks).
};

/// The DRAM-cache tier device: HBM-class (3D DDR4) timing with the
/// capacity — and the capacity-proportional share of background power —
/// scaled down to the cache size, plus a fixed tag/controller floor.
memsim::DeviceModel dram_cache_tier_model(std::uint64_t capacity_bytes);

/// Builds a full hybrid design point around an existing backend model.
/// `cache` defaults apply where fields are left at their defaults.
TieredConfig make_tiered_config(const std::string& name,
                                memsim::DeviceModel backend,
                                const DramCacheConfig& cache);

class TieredSystem final : public memsim::Engine {
 public:
  /// Without a backend controller the backend replays its stream
  /// directly. With one, the miss/fetch/writeback stream the cache
  /// filter derives is routed through a sched::Controller (its
  /// transaction queues and policy) in front of the backend replay,
  /// instead of straight into it — the tier where OPCM's asymmetric
  /// write latency actually bites. The DRAM tier stays direct. The
  /// combined stats then carry the scheduler breakdown of the backend.
  /// Validates the tiered config and any backend controller config.
  ///
  /// Every run replays two tiers through memsim::run_sharded, one pool
  /// "tiers": the DRAM tier's per-channel ReplaySession lanes, then the
  /// backend's per-channel Controller (or ReplaySession) lanes, with
  /// the cache filter as the route. The filter stays on the caller's
  /// thread (its tag state is global); the derived per-tier traffic fans
  /// out by serving channel. `run_threads` (as in
  /// memsim::resolve_run_threads) spreads the lanes over that many
  /// workers; run_threads <= 1 feeds them inline, the same code path,
  /// with bit-identical results for any thread count. Unlike a flat
  /// direct replay, which is always serial because one session per
  /// request costs too little for lane hand-off to pay, the two tiers
  /// together carry enough work per demand request to gain from it.
  explicit TieredSystem(
      TieredConfig config,
      std::optional<sched::ControllerConfig> backend_controller = std::nullopt,
      int run_threads = 1);

  /// Streams the demand source (which must yield requests sorted by
  /// arrival time; throws std::invalid_argument naming the offending
  /// index otherwise) through the cache filter and both tiers. Const and
  /// deterministic: the cache state lives on the stack of each call, so
  /// concurrent sweeps over the same TieredSystem are bit-identical to
  /// serial ones.
  TieredStats run_tiered(memsim::RequestSource& source,
                         const std::string& workload_name = "") const;

  using Engine::run;

  /// Engine entry point: the combined view only (what SweepJob records).
  memsim::SimStats run(memsim::RequestSource& source,
                       const std::string& workload_name = "") const override;

 private:
  TieredConfig config_;
  std::optional<sched::ControllerConfig> backend_controller_;
  int run_threads_ = 1;
};

}  // namespace comet::hybrid
