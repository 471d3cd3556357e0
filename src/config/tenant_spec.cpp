#include "config/tenant_spec.hpp"

#include <set>
#include <stdexcept>

namespace comet::config {

void TenantSpec::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("TenantSpec: tenant name must be non-empty");
  }
  // Names become [tenant.NAME] section headers and CLI list entries, so
  // they must stay bare keys in both grammars.
  for (const char c : name) {
    const bool bare = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!bare) {
      throw std::invalid_argument(
          "tenant '" + name +
          "': names may use letters, digits, '_' and '-' only");
    }
  }
  if (trace_file.empty() && profile.name.empty()) {
    throw std::invalid_argument("tenant '" + name +
                                "': needs a workload profile or a "
                                "trace file");
  }
  if (interarrival_ns < 0.0) {
    throw std::invalid_argument("tenant '" + name +
                                "': interarrival_ns must be >= 0");
  }
  if (burstiness < 0.0 || burstiness >= 1.0) {
    throw std::invalid_argument("tenant '" + name +
                                "': burstiness must be in [0, 1)");
  }
}

void validate_tenants(const std::vector<TenantSpec>& tenants) {
  std::set<std::string> names;
  for (const auto& tenant : tenants) {
    tenant.validate();
    if (!names.insert(tenant.name).second) {
      throw std::invalid_argument("duplicate tenant name '" + tenant.name +
                                  "'");
    }
  }
}

}  // namespace comet::config
