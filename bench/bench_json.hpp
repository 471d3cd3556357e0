#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

/// Shared result schema for the perf-lane benches (bench_streaming,
/// bench_sched). One document shape so scripts/check_perf.py can gate
/// any bench against its committed baseline without bench-specific
/// parsing:
///
///     {
///       "bench": "<bench name>",
///       "schema_version": 1,
///       "results": [
///         {"name": "<unique cell name>", "requests": N,
///          "wall_s": S, "requests_per_s": R,
///          "config": {"k": v, ...}},
///         ...
///       ]
///     }
///
/// `name` is the join key between baseline and current runs — keep cell
/// names stable across refactors or the gate will flag them as
/// missing. `requests_per_s` is the gated metric; `config` is
/// free-form provenance (device, threads, policy, ...) for humans
/// reading the artifact.
namespace comet::bench {

struct BenchResult {
  std::string name;
  std::uint64_t requests = 0;
  double wall_s = 0.0;
  double requests_per_s = 0.0;
  /// Provenance key → pre-formatted JSON value (use json_str for
  /// strings, std::to_string for numbers).
  std::vector<std::pair<std::string, std::string>> config;
};

inline std::string json_str(const std::string& value) {
  return util::json_string(value);
}

inline void write_bench_json(std::ostream& os, const std::string& bench,
                             const std::vector<BenchResult>& results) {
  os << "{\n  \"bench\": " << json_str(bench)
     << ",\n  \"schema_version\": 1,\n  \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    os << (i ? ",\n" : "\n") << "    {\"name\": " << json_str(r.name)
       << ", \"requests\": " << r.requests << ", \"wall_s\": " << r.wall_s
       << ", \"requests_per_s\": " << r.requests_per_s << ", \"config\": {";
    for (std::size_t k = 0; k < r.config.size(); ++k) {
      os << (k ? ", " : "") << json_str(r.config[k].first) << ": "
         << r.config[k].second;
    }
    os << "}}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace comet::bench
