#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "config/device_spec.hpp"
#include "config/tenant_spec.hpp"
#include "config/toml.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/profiler.hpp"
#include "telemetry/telemetry.hpp"

/// Two-way serialization between the simulator's configuration structs
/// (memsim::DeviceModel, hybrid::TieredConfig, memsim::WorkloadProfile,
/// DeviceSpec) and the TOML-subset documents of the declarative
/// experiment API.
///
/// Reading is schema-checked: unknown keys, wrong value types and
/// out-of-range values all raise toml::ParseError anchored to the
/// offending line. Writing emits every field with round-trip precision,
/// so `parse(write(x)) == x` for any valid spec — the invariant behind
/// `--dump-config`.
namespace comet::config {

/// Maps a `base = "<token>"` reference to a resolved built-in spec. The
/// driver registry supplies one (registry_resolver()); pass an empty
/// function where base references must be rejected. Expected to throw
/// std::invalid_argument on unknown tokens.
using DeviceResolver = std::function<DeviceSpec(const std::string& token)>;

/// Schema-checking view over one parsed table: typed getters with range
/// checks, consumed-key tracking, and a finish() pass that rejects any
/// key the schema never asked for — with the key's own line number.
/// Getters are idempotent (reading a key twice is fine) and return
/// nullopt for absent keys, so callers layer "present ⇒ override"
/// semantics on top.
class TableReader {
 public:
  /// `section` names the table in diagnostics, e.g. "[device.timing]".
  TableReader(const toml::Table& table, std::string source,
              std::string section);

  const std::string& source() const { return source_; }
  const std::string& section() const { return section_; }

  bool has(const std::string& key) const;

  /// Line of `key` (0 when absent) — for anchoring follow-on errors.
  std::uint64_t key_line(const std::string& key) const;

  std::optional<std::string> get_string(const std::string& key);
  std::optional<bool> get_bool(const std::string& key);
  /// A number in [min, max]: T is int, uint32_t, uint64_t or double
  /// (which also takes integer values). Compares before narrowing.
  template <typename T>
  std::optional<T> get_number(const std::string& key, T min, T max) {
    constexpr bool kReal = std::is_floating_point_v<T>;
    const toml::Value* v = find_value(
        key, kReal ? toml::Value::Type::kFloat : toml::Value::Type::kInteger);
    if (!v) return std::nullopt;
    if (std::is_unsigned_v<T> && v->integer < 0) {
      fail_at(v->line, "'" + key + "' must be non-negative, got " +
                           std::to_string(v->integer));
    }
    bool in_range = false;
    if constexpr (kReal) {
      in_range = v->number >= min && v->number <= max;
    } else if constexpr (std::is_signed_v<T>) {
      in_range = v->integer >= min && v->integer <= max;
    } else {
      const auto u = static_cast<std::uint64_t>(v->integer);
      in_range = u >= min && u <= max;
    }
    if (!in_range) {
      std::ostringstream msg;
      msg << "'" << key << "' must be between " << min << " and " << max
          << ", got ";
      if (kReal) {
        msg << v->number;
      } else {
        msg << v->integer;
      }
      fail_at(v->line, msg.str());
    }
    return kReal ? T(v->number) : T(v->integer);
  }

  /// Scalar-or-array readers for sweep axes: a single value yields a
  /// one-element vector. Every element is range-checked.
  std::optional<std::vector<std::uint64_t>> get_u64_list(
      const std::string& key, std::uint64_t min = 0,
      std::uint64_t max = UINT64_MAX);
  std::optional<std::vector<std::string>> get_string_list(
      const std::string& key);

  /// Named sub-table, or nullptr when absent. Fails when the key is a
  /// scalar or an array of tables.
  const toml::Table* child(const std::string& key);

  /// `[[key]]` tables, or nullptr when absent.
  const std::vector<toml::Table>* array_of_tables(const std::string& key);

  /// Rejects every key the schema never consumed, naming the first (by
  /// line) unknown key and this section.
  void finish();

  [[noreturn]] void fail(const std::string& message) const;
  [[noreturn]] void fail_at(std::uint64_t line,
                            const std::string& message) const;

 private:
  const toml::Value* find_value(const std::string& key,
                                toml::Value::Type expected);
  /// The elements of a scalar-or-array value (a scalar is one), each
  /// of `type`; `expects` names the shape in the type diagnostic.
  std::optional<std::vector<const toml::Value*>> find_list(
      const std::string& key, toml::Value::Type type, const char* expects);

  const toml::Table& table_;
  std::string source_;
  std::string section_;
  std::set<std::string> consumed_;
};

/// The write_allocate flag of a cache-policy token ([..cache] `policy`,
/// --cache-policy); throws std::invalid_argument on unknown tokens.
bool cache_policy_from_name(const std::string& name);

// --- Writers. The *_body forms assume the caller has just emitted the
// --- section header (`[prefix]` or `[[prefix]]`) and write the keys
// --- plus any `[prefix.*]` sub-sections; `prefix` is the header path.

void write_device_model_body(std::ostream& os, const memsim::DeviceModel& model,
                             const std::string& prefix);

/// Flat specs: `kind = "flat"` + the model body. Hybrid specs: `kind =
/// "hybrid"` plus [prefix.cache], [prefix.dram] and [prefix.backend].
/// Throws std::logic_error on an empty spec.
void write_device_spec_body(std::ostream& os, const DeviceSpec& spec,
                            const std::string& prefix);

/// Standalone `[device]` document for one spec — the `--device-file`
/// input format.
std::string device_spec_to_toml(const DeviceSpec& spec);

std::string workload_to_toml(const memsim::WorkloadProfile& profile);

// --- Readers.

/// Parses one device table (the contents of a `[device]` section or a
/// `[[device]]` element) into a resolved spec. Semantics:
///   - `base = "<token>"` starts from the resolver's spec for that
///     token; all other keys are overrides on top of it.
///   - a flat base (or no base) plus a [cache] section *promotes* the
///     device to a hybrid: the flat model becomes the backend.
///   - hybrid tables take [cache] / [backend] / [dram] sections; the
///     DRAM tier is re-derived from the cache capacity unless [dram] is
///     given explicitly.
/// Throws toml::ParseError with source:line on any schema violation and
/// on model validation failures.
DeviceSpec parse_device(const toml::Table& table, const std::string& source,
                        const DeviceResolver& resolver);

/// Parses a file containing exactly one `[device]` section.
DeviceSpec parse_device_file(const std::string& path,
                             const DeviceResolver& resolver);

/// Parses one workload table; `name` is required, everything else
/// defaults to the WorkloadProfile defaults.
memsim::WorkloadProfile parse_workload(const toml::Table& table,
                                       const std::string& source);

/// Parses a `[controller]` table into the policy axis, the config
/// template (keys: Schema<ControllerConfig>) and the `run_threads`
/// axis (0 = one worker per hardware thread). `run_threads` alone does
/// not engage scheduling: `policies` stays empty and replay stays
/// direct. `policy` or any knob engages it, `policy` defaulting to
/// `{fcfs}`. A `write_queue_depth` re-derives the drain watermarks not
/// given explicitly (7/8 and 3/8 of a bounded depth). Schema
/// violations and inconsistent watermarks raise toml::ParseError
/// anchored to the offending line.
void parse_controller_section(const toml::Table& table,
                              const std::string& source,
                              std::vector<sched::Policy>& policies,
                              sched::ControllerConfig& config,
                              std::vector<int>& run_threads);

/// Parses a `[telemetry]` table (keys: Schema<TelemetrySpec>) over the
/// spec's defaults; `trace_limit` requires `trace_out`. Schema
/// violations and inconsistent combinations raise toml::ParseError
/// anchored to the offending line.
void parse_telemetry_section(const toml::Table& table,
                             const std::string& source,
                             telemetry::TelemetrySpec& spec);

/// Parses a `[tenant]` table into the multi-tenant stream list: an
/// optional `mapping` plus one `[tenant.NAME]` sub-section per stream
/// (`workload` — a built-in profile name — or the Schema<TenantSpec>
/// keys). Streams are ordered by name (the TOML subset does not
/// preserve section order), which fixes the 1-based tenant ids and
/// per-tenant seeds deterministically. At least one stream is required;
/// schema violations, unknown profiles and cross-tenant
/// inconsistencies raise toml::ParseError anchored to the offending
/// line.
void parse_tenant_section(const toml::Table& table, const std::string& source,
                          std::vector<TenantSpec>& tenants,
                          TenantMapping& mapping);

/// Parses a `[profile]` table (keys: Schema<ProfSpec>) over the spec's
/// defaults. Schema violations raise toml::ParseError anchored to the
/// offending line.
void parse_profile_section(const toml::Table& table, const std::string& source,
                           prof::ProfSpec& spec);

/// Parses an `[slo]` table: `assert` — one predicate list string or an
/// array of them (the `--assert-slo` grammar, see prof/slo.hpp),
/// concatenated into the spec's gate set. Malformed predicates and
/// unknown metrics raise toml::ParseError anchored to the offending
/// line.
void parse_slo_section(const toml::Table& table, const std::string& source,
                       prof::ProfSpec& spec);

}  // namespace comet::config
