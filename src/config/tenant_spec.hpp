#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/trace_gen.hpp"
#include "util/names.hpp"

/// Tenant stream descriptions — the data side of the multi-tenant
/// front-end. The specs live in the config layer (alongside the
/// [tenant.NAME] TOML sections and --tenants CLI syntax that produce
/// them) so that src/tenant, which consumes them, can depend on config
/// without a cycle; the merging/pacing machinery itself is in
/// tenant/multi_source.hpp.
namespace comet::config {

/// How tenant address spaces share the device.
enum class TenantMapping : std::uint8_t {
  /// Disjoint static slabs: tenant id placed above address bit 40, so
  /// every tenant owns a private 1 TiB region (no sharing, no
  /// interference through row buffers or GST regions).
  kPartition,
  /// Line-granular round-robin: tenant streams interleave over one
  /// shared space, line by line — maximal contention, the adversarial
  /// fairness scenario.
  kInterleave,
};

inline constexpr util::Named<TenantMapping> kTenantMappingNames[] = {
    {"partition", TenantMapping::kPartition},
    {"interleave", TenantMapping::kInterleave},
};

/// "partition" | "interleave".
inline const char* tenant_mapping_name(TenantMapping mapping) {
  return util::name_of(kTenantMappingNames, mapping);
}

/// Throws std::invalid_argument naming the valid set on unknown names.
inline TenantMapping tenant_mapping_from_name(const std::string& name) {
  return util::find_named(kTenantMappingNames, name, "tenant mapping").value;
}

/// One named tenant stream of a multi-tenant run — a [tenant.NAME]
/// TOML section, or one entry of the CLI's --tenants list.
struct TenantSpec {
  std::string name;
  /// Synthetic workload class (ignored when trace_file is set).
  memsim::WorkloadProfile profile;
  /// NVMain trace replayed for this tenant instead of a generator.
  std::string trace_file;
  /// Mean arrival gap override [ns]; 0 keeps the profile's own rate
  /// (or, for a trace tenant, the trace's native arrival times).
  double interarrival_ns = 0.0;
  /// Open-loop burst intensity in [0, 1): 0 is a pure Poisson stream,
  /// larger values compress arrivals into bursts separated by
  /// compensating idle gaps at the same average rate.
  double burstiness = 0.0;
  /// Per-tenant request count; 0 inherits the run's --requests.
  std::uint64_t requests = 0;

  /// Throws std::invalid_argument on an empty or non-bare-key name
  /// (names become [tenant.NAME] headers: letters, digits, '_', '-'),
  /// a spec naming neither a workload nor a trace file, burstiness
  /// outside [0, 1), or a negative interarrival override.
  void validate() const;
  bool operator==(const TenantSpec&) const = default;
};

/// Validates every spec plus the cross-tenant rule that names are
/// unique. Throws std::invalid_argument naming the offender.
void validate_tenants(const std::vector<TenantSpec>& tenants);

}  // namespace comet::config
