#include "prof/profiler.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace comet::prof {

double PoolProfile::utilization() const {
  if (workers.empty() || wall_s <= 0.0) return 0.0;
  double busy = 0.0;
  for (const WorkerProfile& worker : workers) busy += worker.busy_s;
  const double utilization =
      busy / (wall_s * static_cast<double>(workers.size()));
  return utilization > 1.0 ? 1.0 : utilization;
}

Profiler::Profiler(ProfSpec spec) : spec_(std::move(spec)) {}

void Profiler::record_stage(const std::string& name, double wall_s,
                            std::uint64_t calls) {
  const std::lock_guard<std::mutex> lock(mutex_);
  StageStats& stage = stages_[name];
  stage.calls += calls;
  stage.wall_s += wall_s;
}

PoolProfile* Profiler::add_pool(std::string stage) {
  auto profile = std::make_unique<PoolProfile>();
  profile->stage = std::move(stage);
  const std::lock_guard<std::mutex> lock(mutex_);
  pools_.push_back(std::move(profile));
  return pools_.back().get();
}

namespace {

/// Reads one "Vm...:  <n> kB" line from /proc/self/status.
std::uint64_t proc_status_kib(const char* key) {
  std::ifstream status("/proc/self/status");
  if (!status) return 0;
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    std::uint64_t kib = 0;
    fields >> kib;
    return kib;
  }
  return 0;
}

}  // namespace

std::uint64_t current_rss_bytes() { return proc_status_kib("VmRSS") * 1024; }

std::uint64_t peak_rss_bytes() { return proc_status_kib("VmHWM") * 1024; }

}  // namespace comet::prof
