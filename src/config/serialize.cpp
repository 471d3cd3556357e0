#include "config/serialize.hpp"

#include <algorithm>
#include <climits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "config/fields.hpp"
#include "config/metrics.hpp"

namespace comet::config {

namespace {

/// Re-anchors std::invalid_argument from struct validate() calls to the
/// document location that produced the struct.
template <typename Fn>
void validated(const TableReader& reader, std::uint64_t line, Fn&& fn) {
  try {
    fn();
  } catch (const toml::ParseError&) {
    throw;
  } catch (const std::exception& e) {
    throw toml::ParseError(reader.source(), line, e.what());
  }
}

}  // namespace

TableReader::TableReader(const toml::Table& table, std::string source,
                         std::string section)
    : table_(table), source_(std::move(source)), section_(std::move(section)) {}

bool TableReader::has(const std::string& key) const {
  return table_.values.count(key) || table_.children.count(key) ||
         table_.arrays.count(key);
}

std::uint64_t TableReader::key_line(const std::string& key) const {
  if (auto it = table_.values.find(key); it != table_.values.end()) {
    return it->second.line;
  }
  if (auto it = table_.children.find(key); it != table_.children.end()) {
    return it->second.line;
  }
  if (auto it = table_.arrays.find(key);
      it != table_.arrays.end() && !it->second.empty()) {
    return it->second.front().line;
  }
  return 0;
}

void TableReader::fail(const std::string& message) const {
  throw toml::ParseError(source_, table_.line,
                         section_ + ": " + message);
}

void TableReader::fail_at(std::uint64_t line,
                          const std::string& message) const {
  throw toml::ParseError(source_, line, section_ + ": " + message);
}

const toml::Value* TableReader::find_value(const std::string& key,
                                           toml::Value::Type expected) {
  const auto it = table_.values.find(key);
  if (it == table_.values.end()) {
    if (table_.children.count(key) || table_.arrays.count(key)) {
      fail_at(key_line(key), "'" + key + "' must be a value, not a section");
    }
    return nullptr;
  }
  consumed_.insert(key);
  const toml::Value& value = it->second;
  const bool numeric_ok = expected == toml::Value::Type::kFloat &&
                          value.type == toml::Value::Type::kInteger;
  if (value.type != expected && !numeric_ok) {
    toml::Value expected_probe;
    expected_probe.type = expected;
    fail_at(value.line, "'" + key + "' expects " + expected_probe.type_name() +
                            ", got " + value.type_name());
  }
  return &value;
}

std::optional<std::string> TableReader::get_string(const std::string& key) {
  const toml::Value* v = find_value(key, toml::Value::Type::kString);
  if (!v) return std::nullopt;
  return v->str;
}

std::optional<bool> TableReader::get_bool(const std::string& key) {
  const toml::Value* v = find_value(key, toml::Value::Type::kBoolean);
  if (!v) return std::nullopt;
  return v->boolean;
}

std::optional<std::vector<const toml::Value*>> TableReader::find_list(
    const std::string& key, toml::Value::Type type, const char* expects) {
  const auto it = table_.values.find(key);
  if (it == table_.values.end()) {
    if (has(key)) fail_at(key_line(key), "'" + key + "' must be a value");
    return std::nullopt;
  }
  consumed_.insert(key);
  const toml::Value& value = it->second;
  std::vector<const toml::Value*> out;
  if (value.type != toml::Value::Type::kArray) out.push_back(&value);
  for (const auto& element : value.array) out.push_back(&element);
  for (const toml::Value* v : out) {
    if (v->type != type) {
      fail_at(v->line, "'" + key + "' expects " + expects + ", got " +
                           v->type_name());
    }
  }
  return out;
}

std::optional<std::vector<std::uint64_t>> TableReader::get_u64_list(
    const std::string& key, std::uint64_t min, std::uint64_t max) {
  const auto values = find_list(key, toml::Value::Type::kInteger,
                                "an integer or an array of integers");
  if (!values) return std::nullopt;
  if (values->empty()) {
    fail_at(key_line(key), "'" + key + "' must not be an empty array");
  }
  std::vector<std::uint64_t> out;
  for (const toml::Value* v : *values) {
    const auto u = static_cast<std::uint64_t>(v->integer);
    if (v->integer < 0 || u < min || u > max) {
      fail_at(v->line, "'" + key + "' values must be between " +
                           std::to_string(min) + " and " +
                           std::to_string(max) + ", got " +
                           std::to_string(v->integer));
    }
    out.push_back(u);
  }
  return out;
}

std::optional<std::vector<std::string>> TableReader::get_string_list(
    const std::string& key) {
  const auto values = find_list(key, toml::Value::Type::kString,
                                "a string or an array of strings");
  if (!values) return std::nullopt;
  std::vector<std::string> out;
  for (const toml::Value* v : *values) out.push_back(v->str);
  return out;
}

const toml::Table* TableReader::child(const std::string& key) {
  const auto it = table_.children.find(key);
  if (it == table_.children.end()) {
    if (table_.values.count(key) || table_.arrays.count(key)) {
      fail_at(key_line(key), "'" + key + "' must be a [" + key + "] table");
    }
    return nullptr;
  }
  consumed_.insert(key);
  return &it->second;
}

const std::vector<toml::Table>* TableReader::array_of_tables(
    const std::string& key) {
  const auto it = table_.arrays.find(key);
  if (it == table_.arrays.end()) {
    if (table_.values.count(key) || table_.children.count(key)) {
      fail_at(key_line(key),
              "'" + key + "' must be a [[" + key + "]] array of tables");
    }
    return nullptr;
  }
  consumed_.insert(key);
  return &it->second;
}

void TableReader::finish() {
  std::string unknown;
  std::uint64_t best_line = 0;
  const auto consider = [&](const std::string& key, std::uint64_t line) {
    if (consumed_.count(key)) return;
    if (!unknown.empty() && line >= best_line) return;
    unknown = key;
    best_line = line;
  };
  for (const auto& [key, value] : table_.values) consider(key, value.line);
  for (const auto& [key, child_table] : table_.children) {
    consider(key, child_table.line);
  }
  for (const auto& [key, tables] : table_.arrays) {
    consider(key, tables.empty() ? table_.line : tables.front().line);
  }
  if (!unknown.empty()) {
    fail_at(best_line, "unknown key '" + unknown + "'");
  }
}

bool cache_policy_from_name(const std::string& name) {
  return util::find_named(kCachePolicyNames, name, "cache policy").value;
}

// --- Writers -------------------------------------------------------------

void write_device_model_body(std::ostream& os, const memsim::DeviceModel& model,
                             const std::string& prefix) {
  os << "name = " << toml::format_string(model.name) << "\n"
     << "capacity_bytes = " << model.capacity_bytes << "\n"
     << "\n[" << prefix << ".timing]\n";
  write_fields(os, model.timing);
  os << "\n[" << prefix << ".energy]\n";
  write_fields(os, model.energy);
}

void write_device_spec_body(std::ostream& os, const DeviceSpec& spec,
                            const std::string& prefix) {
  if (spec.flat) {
    os << "kind = \"flat\"\n";
    write_device_model_body(os, *spec.flat, prefix);
    return;
  }
  if (!spec.tiered) {
    throw std::logic_error(
        "write_device_spec_body: empty spec '" + spec.name +
        "' (neither flat nor tiered is engaged)");
  }
  const auto& tiered = *spec.tiered;
  os << "kind = \"hybrid\"\n"
     << "name = " << toml::format_string(tiered.name) << "\n";
  os << "\n[" << prefix << ".cache]\n";
  write_fields(os, tiered.cache);
  os << "\n[" << prefix << ".dram]\n";
  write_device_model_body(os, tiered.dram, prefix + ".dram");
  os << "\n[" << prefix << ".backend]\n";
  write_device_model_body(os, tiered.backend, prefix + ".backend");
}

std::string device_spec_to_toml(const DeviceSpec& spec) {
  std::ostringstream os;
  os << "[device]\n";
  write_device_spec_body(os, spec, "device");
  return os.str();
}

std::string workload_to_toml(const memsim::WorkloadProfile& profile) {
  std::ostringstream os;
  os << "[workload]\n";
  write_fields(os, profile);
  return os.str();
}

// --- Readers -------------------------------------------------------------

namespace {

/// Applies `capacity_bytes` / `capacity_gb` plus the [timing] and
/// [energy] sub-tables of `reader`'s table onto `model`. `include_name`
/// is false when the table's `name` key belongs to an enclosing hybrid,
/// not to this model.
void apply_model_keys(TableReader& reader, memsim::DeviceModel& model,
                      bool include_name) {
  if (include_name) {
    if (auto name = reader.get_string("name")) model.name = *name;
  }
  if (auto v = reader.get_number<std::uint64_t>("capacity_bytes", 1,
                                                 UINT64_MAX)) {
    model.capacity_bytes = *v;
  }
  if (auto v = reader.get_number<std::uint64_t>("capacity_gb", 1,
                                                 1ull << 33)) {
    if (reader.has("capacity_bytes")) {
      reader.fail_at(reader.key_line("capacity_gb"),
                     "'capacity_gb' and 'capacity_bytes' are mutually "
                     "exclusive");
    }
    model.capacity_bytes = *v << 30;
  }

  if (const toml::Table* timing = reader.child("timing")) {
    TableReader t(*timing, reader.source(), reader.section() + ".timing");
    read_fields(t, model.timing);
    t.finish();
  }
  if (const toml::Table* energy = reader.child("energy")) {
    TableReader e(*energy, reader.source(), reader.section() + ".energy");
    read_fields(e, model.energy);
    e.finish();
  }
}

/// Resolves a base token, re-anchoring resolver errors (unknown token,
/// etc.) to the `base` key's line.
DeviceSpec resolve_base(TableReader& reader, const DeviceResolver& resolver,
                        const std::string& base) {
  if (!resolver) {
    reader.fail_at(reader.key_line("base"),
                   "'base' references are not available here (no device "
                   "registry to resolve '" + base + "')");
  }
  try {
    return resolver(base);
  } catch (const toml::ParseError&) {
    throw;
  } catch (const std::exception& e) {
    reader.fail_at(reader.key_line("base"), e.what());
  }
}

/// Parses a [..backend] table: a flat model, optionally starting from a
/// flat `base` token or from `inherited` (the enclosing hybrid base's
/// backend).
memsim::DeviceModel parse_backend(const toml::Table& table,
                                  const std::string& source,
                                  const std::string& section,
                                  const DeviceResolver& resolver,
                                  const memsim::DeviceModel* inherited) {
  TableReader reader(table, source, section);
  memsim::DeviceModel model;
  if (auto base = reader.get_string("base")) {
    const DeviceSpec spec = resolve_base(reader, resolver, *base);
    if (!spec.flat) {
      reader.fail_at(reader.key_line("base"),
                     "backend base '" + *base +
                         "' must be a flat device, not a hybrid one");
    }
    model = *spec.flat;
  } else if (inherited) {
    model = *inherited;
  }
  apply_model_keys(reader, model, /*include_name=*/true);
  reader.finish();
  return model;
}

/// Applies a [..cache] table onto `cache`; true when it sets the
/// capacity (which re-derives the DRAM tier).
bool apply_cache_keys(const toml::Table& table, const std::string& source,
                      const std::string& section,
                      hybrid::DramCacheConfig& cache) {
  TableReader reader(table, source, section);
  read_fields(reader, cache);
  if (auto v = reader.get_number<std::uint64_t>("capacity_mb", 1,
                                                 1ull << 30)) {
    if (reader.has("capacity_bytes")) {
      reader.fail_at(reader.key_line("capacity_mb"),
                     "'capacity_mb' and 'capacity_bytes' are mutually "
                     "exclusive");
    }
    cache.capacity_bytes = *v << 20;
  }
  reader.finish();
  return reader.has("capacity_bytes") || reader.has("capacity_mb");
}

}  // namespace

DeviceSpec parse_device(const toml::Table& table, const std::string& source,
                        const DeviceResolver& resolver) {
  TableReader reader(table, source, "[device]");

  DeviceSpec base_spec;
  const auto base = reader.get_string("base");
  if (base) base_spec = resolve_base(reader, resolver, *base);

  const auto kind = reader.get_string("kind");
  if (kind && *kind != "flat" && *kind != "hybrid") {
    reader.fail_at(reader.key_line("kind"),
                   "'kind' must be \"flat\" or \"hybrid\", got \"" + *kind +
                       "\"");
  }

  const toml::Table* cache_table = reader.child("cache");
  const toml::Table* dram_table = reader.child("dram");
  const toml::Table* backend_table = reader.child("backend");

  const bool base_hybrid = base_spec.is_hybrid();
  const bool want_hybrid = base_hybrid || cache_table || dram_table ||
                           backend_table || (kind && *kind == "hybrid");
  if (kind && *kind == "flat" && want_hybrid) {
    reader.fail_at(reader.key_line("kind"),
                   "kind = \"flat\" contradicts the hybrid sections/base of "
                   "this device");
  }

  const auto name = reader.get_string("name");
  if (!base && !name) {
    reader.fail("'name' is required when no 'base' is given");
  }

  if (!want_hybrid) {
    memsim::DeviceModel model =
        base ? *base_spec.flat : memsim::DeviceModel{};
    apply_model_keys(reader, model, /*include_name=*/true);
    reader.finish();
    DeviceSpec spec;
    validated(reader, table.line, [&] {
      model.validate();
      spec = DeviceSpec(std::move(model));
    });
    return spec;
  }

  // --- Hybrid: assemble cache + dram tier + backend.
  hybrid::TieredConfig config;

  if (base_hybrid) {
    config = *base_spec.tiered;
    // Backend fields of a hybrid base belong under [..backend]; loose
    // top-level model keys would be ambiguous between the tiers.
    for (const char* key : {"capacity_bytes", "capacity_gb"}) {
      if (reader.has(key)) {
        reader.fail_at(reader.key_line(key),
                       std::string("'") + key +
                           "' on a hybrid device is ambiguous; set it under "
                           "[..backend] or [..dram]");
      }
    }
    for (const char* key : {"timing", "energy"}) {
      if (reader.has(key)) {
        reader.fail_at(reader.key_line(key),
                       std::string("[..") + key +
                           "] on a hybrid device is ambiguous; configure "
                           "[..backend] or [..dram] instead");
      }
    }
  } else if (base) {
    // A flat base promoted to a hybrid: the flat model is the backend,
    // and top-level model keys configure it directly.
    if (backend_table) {
      reader.fail_at(backend_table->line,
                     "base '" + *base +
                         "' is flat and already provides the backend; "
                         "override its fields at the top level instead of "
                         "[..backend]");
    }
    config.backend = *base_spec.flat;
    apply_model_keys(reader, config.backend, /*include_name=*/false);
  } else {
    if (!backend_table) {
      reader.fail(
          "a hybrid device needs a [..backend] section (or a hybrid 'base')");
    }
  }

  if (backend_table) {
    config.backend = parse_backend(
        *backend_table, source, reader.section() + ".backend", resolver,
        base_hybrid ? &base_spec.tiered->backend : nullptr);
  }

  const bool cache_capacity_set =
      cache_table && apply_cache_keys(*cache_table, source,
                                      reader.section() + ".cache",
                                      config.cache);

  // The DRAM tier is derived from the cache capacity (HBM-class model
  // scaled to size) unless the document pins it down explicitly.
  const bool rebuild_dram = !base_hybrid || cache_capacity_set;
  if (rebuild_dram) {
    config.dram = hybrid::dram_cache_tier_model(config.cache.capacity_bytes);
  }
  if (dram_table) {
    TableReader d(*dram_table, source, reader.section() + ".dram");
    apply_model_keys(d, config.dram, /*include_name=*/true);
    d.finish();
  }

  config.name = name ? *name : base_spec.name;
  reader.finish();
  DeviceSpec spec;
  validated(reader, table.line, [&] {
    config.validate();
    spec = DeviceSpec(std::move(config));
  });
  return spec;
}

DeviceSpec parse_device_file(const std::string& path,
                             const DeviceResolver& resolver) {
  const toml::Document doc = toml::parse_file(path);
  TableReader root(doc.root, doc.source, "device file");
  const toml::Table* device = root.child("device");
  if (!device) {
    root.fail("expected a [device] section");
  }
  root.finish();
  return parse_device(*device, doc.source, resolver);
}

memsim::WorkloadProfile parse_workload(const toml::Table& table,
                                       const std::string& source) {
  TableReader reader(table, source, "[workload]");
  if (!reader.has("name")) reader.fail("'name' is required");
  memsim::WorkloadProfile profile;
  read_fields(reader, profile);
  reader.finish();
  return profile;
}

bool policies_read(const std::vector<sched::Policy>& policies,
                   std::string_view key) {
  bool policy_specific = false;
  for (const sched::PolicyInfo& info : sched::known_policies()) {
    if (std::ranges::find(info.knobs, key) == info.knobs.end()) continue;
    if (std::ranges::find(policies, info.policy) != policies.end()) {
      return true;
    }
    policy_specific = true;
  }
  return !policy_specific;
}

void parse_controller_section(const toml::Table& table,
                              const std::string& source,
                              std::vector<sched::Policy>& policies,
                              sched::ControllerConfig& config,
                              std::vector<int>& run_threads) {
  TableReader reader(table, source, "[controller]");
  if (auto threads = reader.get_u64_list("run_threads", 0, INT_MAX)) {
    run_threads.assign(threads->begin(), threads->end());
  }
  // A section that only shards (run_threads alone) does not engage the
  // scheduler: the replay stays direct. `policy` or any knob does.
  const auto& knobs = Schema<sched::ControllerConfig>::fields;
  const bool scheduling =
      reader.has("policy") ||
      std::ranges::any_of(knobs, [&](auto& f) { return reader.has(f.key); });
  policies.clear();
  if (!scheduling) {
    reader.finish();
    return;
  }
  if (auto names = reader.get_string_list("policy")) {
    if (names->empty()) {
      reader.fail_at(reader.key_line("policy"),
                     "'policy' must name at least one scheduling policy");
    }
    for (const auto& name : *names) {
      try {
        policies.push_back(sched::policy_from_name(name));
      } catch (const std::exception& e) {
        reader.fail_at(reader.key_line("policy"), e.what());
      }
    }
  } else {
    policies.push_back(sched::Policy::kFcfs);
  }
  config.policy = policies.front();
  // A knob no policy on the axis reads would be silently ignored.
  for (const sched::PolicyInfo& info : sched::known_policies()) {
    for (const char* key : info.knobs) {
      if (reader.has(key) && !policies_read(policies, key)) {
        reader.fail_at(reader.key_line(key),
                       std::string("'") + key + "' is read by policy " +
                           info.name +
                           " only, and the policy axis does not include it");
      }
    }
  }
  read_fields(reader, config);
  // A document that bounds the write queue wants watermarks scaled to
  // that bound, not left at the depth-32 defaults; explicit watermark
  // keys keep their values — the same semantics as the
  // --write-q/--drain-* CLI flags.
  if (reader.has("write_queue_depth")) {
    const auto derived = sched::ControllerConfig::with_depths(
        config.policy, config.read_queue_depth, config.write_queue_depth);
    if (!reader.has("drain_high_watermark")) {
      config.drain_high_watermark = derived.drain_high_watermark;
    }
    if (!reader.has("drain_low_watermark")) {
      config.drain_low_watermark = derived.drain_low_watermark;
    }
  }
  reader.finish();
  validated(reader, table.line, [&] { config.validate(); });
}

void parse_telemetry_section(const toml::Table& table,
                             const std::string& source,
                             telemetry::TelemetrySpec& spec) {
  TableReader reader(table, source, "[telemetry]");
  read_fields(reader, spec);
  if (reader.has("trace_limit") && spec.trace_path.empty()) {
    reader.fail_at(reader.key_line("trace_limit"),
                   "'trace_limit' requires 'trace_out'; there is no event "
                   "budget to cap without a trace");
  }
  reader.finish();
  validated(reader, table.line, [&] { spec.validate(); });
}

void parse_profile_section(const toml::Table& table, const std::string& source,
                           prof::ProfSpec& spec) {
  TableReader reader(table, source, "[profile]");
  read_fields(reader, spec);
  reader.finish();
}

void parse_slo_section(const toml::Table& table, const std::string& source,
                       prof::ProfSpec& spec) {
  TableReader reader(table, source, "[slo]");
  if (auto lists = reader.get_string_list("assert")) {
    for (const std::string& text : lists.value()) {
      try {
        std::vector<prof::SloPredicate> parsed = parse_slo(text);
        spec.slo.insert(spec.slo.end(), parsed.begin(), parsed.end());
      } catch (const std::exception& e) {
        reader.fail_at(reader.key_line("assert"), e.what());
      }
    }
  }
  reader.finish();
}

void parse_tenant_section(const toml::Table& table, const std::string& source,
                          std::vector<TenantSpec>& tenants,
                          TenantMapping& mapping) {
  TableReader reader(table, source, "[tenant]");
  if (auto name = reader.get_string("mapping")) {
    try {
      mapping = tenant_mapping_from_name(*name);
    } catch (const std::exception& e) {
      reader.fail_at(reader.key_line("mapping"), e.what());
    }
  }
  tenants.clear();
  // toml::Table keeps sub-sections name-sorted, so stream order — and
  // with it the 1-based tenant ids and per-tenant seed splits — is the
  // sorted name order regardless of document layout.
  for (const auto& [name, child] : table.children) {
    (void)reader.child(name);  // Mark consumed for reader.finish().
    TableReader t(child, source, "[tenant." + name + "]");
    TenantSpec spec;
    spec.name = name;
    if (auto workload = t.get_string("workload")) {
      try {
        spec.profile = memsim::profile_by_name(*workload);
      } catch (const std::exception& e) {
        t.fail_at(t.key_line("workload"), e.what());
      }
    }
    read_fields(t, spec);
    t.finish();
    validated(t, child.line, [&] { spec.validate(); });
    tenants.push_back(std::move(spec));
  }
  if (tenants.empty()) {
    reader.fail("a [tenant] section needs at least one [tenant.NAME] stream");
  }
  reader.finish();
  validated(reader, table.line, [&] { validate_tenants(tenants); });
}

}  // namespace comet::config
