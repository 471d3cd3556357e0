#include "config/experiment.hpp"

#include <cmath>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "config/fields.hpp"

namespace comet::config {

void ExperimentSpec::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("experiment: empty name");
  }
  if (device_tokens.empty() && devices.empty()) {
    throw std::invalid_argument("experiment '" + name +
                                "' defines no devices");
  }
  for (const auto& spec : devices) {
    if (!spec.flat && !spec.tiered) {
      throw std::invalid_argument("experiment '" + name +
                                  "' contains an empty device spec");
    }
  }
  if (!tenants.empty()) {
    validate_tenants(tenants);
    if (!trace_file.empty()) {
      throw std::invalid_argument(
          "experiment '" + name +
          "' sets trace_file and [tenant] streams; a trace tenant's file "
          "belongs on its own spec");
    }
    if (!workload_names.empty() || !workloads.empty()) {
      throw std::invalid_argument(
          "experiment '" + name +
          "' sets workloads and [tenant] streams; the tenant specs define "
          "the demand of a multi-tenant run");
    }
  } else if (trace_file.empty()) {
    if (workload_names.empty() && workloads.empty()) {
      throw std::invalid_argument("experiment '" + name +
                                  "' defines no workloads and no trace_file");
    }
  } else if (!workload_names.empty() || !workloads.empty()) {
    throw std::invalid_argument(
        "experiment '" + name +
        "' sets trace_file and workloads; a trace replay has exactly one "
        "request stream");
  } else if (requests.size() > 1 || seeds.size() > 1) {
    // requests/seed are ignored during replay, so an axis would just run
    // the identical trace N times and misread as a real sweep.
    throw std::invalid_argument(
        "experiment '" + name +
        "' sets trace_file and a requests/seed axis; replay ignores both, "
        "so the axis would only duplicate identical runs");
  }
  if (requests.empty() || seeds.empty() || channels.empty()) {
    throw std::invalid_argument("experiment '" + name +
                                "' has an empty requests/seeds/channels axis");
  }
  for (const auto count : requests) {
    if (count == 0) {
      throw std::invalid_argument("experiment '" + name +
                                  "': requests values must be >= 1");
    }
  }
  for (const auto count : channels) {
    if (count < 0) {
      throw std::invalid_argument("experiment '" + name +
                                  "': channels values must be >= 0");
    }
  }
  if (line_bytes == 0) {
    throw std::invalid_argument("experiment '" + name +
                                "': line_bytes must be >= 1");
  }
  if (!(cpu_ghz > 0.0) || !std::isfinite(cpu_ghz)) {
    throw std::invalid_argument("experiment '" + name +
                                "': cpu_ghz must be a positive number");
  }
  if (run_threads.empty()) {
    throw std::invalid_argument("experiment '" + name +
                                "' has an empty run_threads axis");
  }
  for (const auto threads : run_threads) {
    if (threads < 0) {
      throw std::invalid_argument("experiment '" + name +
                                  "': run_threads values must be >= 0");
    }
  }
  if (!policies.empty()) controller.validate();
  telemetry.validate();
  profile.validate();
}

ExperimentBuilder& ExperimentBuilder::name(std::string value) {
  spec_.name = std::move(value);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::device(std::string token) {
  spec_.device_tokens.push_back(std::move(token));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::device(DeviceSpec spec) {
  spec_.devices.push_back(std::move(spec));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::workload(std::string profile_name) {
  spec_.workload_names.push_back(std::move(profile_name));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::workload(
    memsim::WorkloadProfile profile) {
  spec_.workloads.push_back(std::move(profile));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::requests(
    std::vector<std::uint64_t> values) {
  spec_.requests = std::move(values);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seeds(std::vector<std::uint64_t> values) {
  spec_.seeds = std::move(values);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::channels(std::vector<int> values) {
  spec_.channels = std::move(values);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::schedule(
    std::vector<sched::Policy> policies) {
  spec_.policies = std::move(policies);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::controller_config(
    sched::ControllerConfig config) {
  spec_.controller = config;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::run_threads(std::vector<int> values) {
  spec_.run_threads = std::move(values);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::telemetry(
    comet::telemetry::TelemetrySpec spec) {
  spec_.telemetry = std::move(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::profile(comet::prof::ProfSpec spec) {
  spec_.profile = std::move(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::tenant(TenantSpec spec) {
  spec_.tenants.push_back(std::move(spec));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::tenant_mapping(TenantMapping mapping) {
  spec_.tenant_mapping = mapping;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::line_bytes(std::uint32_t value) {
  spec_.line_bytes = value;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::trace(std::string path, double cpu_ghz) {
  spec_.trace_file = std::move(path);
  spec_.cpu_ghz = cpu_ghz;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::cpu_ghz(double value) {
  spec_.cpu_ghz = value;
  return *this;
}

ExperimentSpec ExperimentBuilder::build() const {
  spec_.validate();
  return spec_;
}

ExperimentSpec parse_experiment(const toml::Document& doc,
                                const DeviceResolver& resolver) {
  ExperimentSpec spec;
  spec.source = doc.source;

  TableReader root(doc.root, doc.source, "experiment file");
  std::uint64_t anchor_line = 0;

  if (const toml::Table* experiment = root.child("experiment")) {
    anchor_line = experiment->line;
    TableReader reader(*experiment, doc.source, "[experiment]");
    read_fields(reader, spec);
    reader.finish();
  }

  if (const toml::Table* controller = root.child("controller")) {
    parse_controller_section(*controller, doc.source, spec.policies,
                             spec.controller, spec.run_threads);
  }

  if (const toml::Table* telemetry = root.child("telemetry")) {
    parse_telemetry_section(*telemetry, doc.source, spec.telemetry);
  }

  if (const toml::Table* profile = root.child("profile")) {
    parse_profile_section(*profile, doc.source, spec.profile);
  }

  if (const toml::Table* slo = root.child("slo")) {
    parse_slo_section(*slo, doc.source, spec.profile);
  }

  if (const toml::Table* tenant = root.child("tenant")) {
    parse_tenant_section(*tenant, doc.source, spec.tenants,
                         spec.tenant_mapping);
  }

  if (const auto* devices = root.array_of_tables("device")) {
    for (const auto& table : *devices) {
      spec.devices.push_back(parse_device(table, doc.source, resolver));
    }
  }
  if (const auto* workloads = root.array_of_tables("workload")) {
    for (const auto& table : *workloads) {
      spec.workloads.push_back(parse_workload(table, doc.source));
    }
  }
  root.finish();

  try {
    spec.validate();
  } catch (const std::exception& e) {
    throw toml::ParseError(doc.source, anchor_line, e.what());
  }
  return spec;
}

ExperimentSpec parse_experiment_file(const std::string& path,
                                     const DeviceResolver& resolver) {
  return parse_experiment(toml::parse_file(path), resolver);
}

void write_experiment(std::ostream& os, const ExperimentSpec& spec) {
  os << "# comet_sim experiment specification\n"
     << "[experiment]\n";
  write_fields(os, spec);
  const bool sharded = spec.run_threads != std::vector<int>{1};
  if (!spec.policies.empty() || sharded) {
    os << "\n[controller]\n";
    if (!spec.policies.empty()) {
      std::vector<std::string> names;
      for (const auto p : spec.policies) {
        names.emplace_back(sched::policy_name(p));
      }
      // A lone policy is a scalar, like the other axes.
      os << "policy = "
         << (names.size() == 1 ? format_value(names[0]) : format_value(names))
         << "\n";
      write_fields(os, spec.controller);
    }
    if (sharded) {
      os << "run_threads = " << format_value(spec.run_threads) << "\n";
    }
  }
  if (spec.telemetry.enabled()) {
    os << "\n[telemetry]\n";
    write_fields(os, spec.telemetry);
  }
  if (spec.profile.profiling() || spec.profile.heartbeat()) {
    os << "\n[profile]\n";
    write_fields(os, spec.profile);
  }
  if (spec.profile.gating()) {
    os << "\n[slo]\n"
       << "assert = "
       << toml::format_string(prof::slo_to_string(spec.profile.slo)) << "\n";
  }
  if (!spec.tenants.empty()) {
    os << "\n[tenant]\n"
       << "mapping = "
       << toml::format_string(tenant_mapping_name(spec.tenant_mapping))
       << "\n";
    // parse_tenant_section returns streams in name order; specs built
    // by parse already round-trip, programmatic ones re-load sorted.
    for (const auto& tenant : spec.tenants) {
      os << "\n[tenant." << tenant.name << "]\n";
      if (tenant.trace_file.empty()) {
        os << "workload = " << toml::format_string(tenant.profile.name)
           << "\n";
      }
      write_fields(os, tenant);
    }
  }
  for (const auto& device : spec.devices) {
    os << "\n[[device]]\n";
    write_device_spec_body(os, device, "device");
  }
  for (const auto& workload : spec.workloads) {
    os << "\n[[workload]]\n";
    write_fields(os, workload);
  }
}

std::string experiment_to_toml(const ExperimentSpec& spec) {
  std::ostringstream os;
  write_experiment(os, spec);
  return os.str();
}

}  // namespace comet::config
