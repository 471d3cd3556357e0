#include "memsim/engine.hpp"

#include <utility>

#include "memsim/device.hpp"
#include "telemetry/telemetry.hpp"

namespace comet::memsim {

SimStats Engine::run(const std::vector<Request>& requests,
                     const std::string& workload_name) const {
  VectorSource source(requests);
  return run(source, workload_name);
}

telemetry::Recorder* Engine::telemetry_stage(
    const DeviceTiming& timing, std::string name,
    std::optional<std::uint64_t> event_budget) const {
  if (!telemetry_) return nullptr;
  return telemetry_->add_stage(
      std::move(name), timing.channels, timing.banks_per_channel,
      event_budget.value_or(telemetry_->spec().event_budget()),
      timing.line_striped_across_banks ? timing.banks_per_channel : 1);
}

}  // namespace comet::memsim
