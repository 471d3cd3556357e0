#include "driver/options.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "config/experiment.hpp"
#include "config/serialize.hpp"
#include "driver/registry.hpp"
#include "memsim/trace_gen.hpp"

namespace comet::driver {

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& value,
                        std::uint64_t max = UINT64_MAX) {
  std::uint64_t parsed = 0;
  try {
    // Digits only: stoull would skip whitespace and accept '-'/'+' signs
    // (wrapping negatives to huge values), so screen the characters first.
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(value);
    }
    parsed = std::stoull(value);
  } catch (const std::exception&) {
    throw std::invalid_argument(
        flag + " expects a non-negative integer, got '" + value + "'");
  }
  if (parsed > max) {
    throw std::invalid_argument(flag + " value " + value +
                                " exceeds the maximum of " +
                                std::to_string(max));
  }
  return parsed;
}

/// Plain decimal only (digits, at most one '.', at least one digit):
/// no signs, exponents, hex floats, inf/nan or locale surprises — the
/// same strictness as parse_u64. Zero passes only when `positive` is
/// false; `what` leads the diagnostic.
double parse_decimal(const std::string& what, const std::string& value,
                     bool positive) {
  errno = 0;
  const bool plain =
      value.find_first_of("0123456789") != std::string::npos &&
      value.find_first_not_of("0123456789.") == std::string::npos &&
      value.find('.') == value.rfind('.');
  const double parsed = plain ? std::strtod(value.c_str(), nullptr) : 0.0;
  if (!plain || errno != 0 || !std::isfinite(parsed) ||
      (positive && parsed <= 0.0)) {
    throw std::invalid_argument(what + " expects a " +
                                (positive ? "positive" : "non-negative") +
                                " decimal number, got '" + value + "'");
  }
  return parsed;
}

/// True when `path` names an openable, readable file. peek() forces a
/// first read, catching paths that open but cannot be read (e.g. a
/// directory, which fopen happily opens on glibc); an empty regular
/// file only sets eofbit and stays valid.
bool file_readable(const std::string& path) {
  std::ifstream probe(path);
  probe.peek();
  return probe.is_open() && !probe.bad();
}

}  // namespace

Options parse_args(const std::vector<std::string>& args) {
  Options opt;
  // First matrix-defining flag seen, for the --config conflict
  // diagnostic: a config file owns the whole matrix.
  std::string matrix_flag;
  const auto matrix = [&](const std::string& flag) {
    if (matrix_flag.empty()) matrix_flag = flag;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help" || flag == "-h") {
      opt.help = true;
      return opt;
    }
    if (flag == "--csv") {
      opt.csv = true;
      continue;
    }
    if (flag == "--list-devices") {
      opt.list_devices = true;
      continue;
    }
    if (flag == "--list-workloads") {
      opt.list_workloads = true;
      continue;
    }
    if (flag == "--list-policies") {
      opt.list_policies = true;
      continue;
    }
    if (flag == "--profile") {
      opt.profile = true;
      matrix(flag);
      continue;
    }
    // --progress takes an optional =ms value (there is no way to make a
    // space-separated value optional), defaulting to two ticks a second.
    if (flag == "--progress") {
      opt.progress_ms = 500;
      matrix(flag);
      continue;
    }
    if (flag.rfind("--progress=", 0) == 0) {
      opt.progress_ms =
          parse_u64("--progress", flag.substr(std::string("--progress=").size()));
      if (opt.progress_ms == 0) {
        throw std::invalid_argument(
            "--progress interval must be >= 1 (milliseconds between updates)");
      }
      matrix("--progress");
      continue;
    }
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(flag + " requires a value");
      }
      return args[++i];
    };
    if (flag == "--device") {
      opt.device = next();
      opt.device_given = true;
      matrix(flag);
    } else if (flag == "--workload") {
      opt.workload = next();
      opt.workload_given = true;
      matrix(flag);
    } else if (flag == "--channels") {
      opt.channels = static_cast<int>(parse_u64(flag, next(), INT_MAX));
      if (opt.channels <= 0) {
        throw std::invalid_argument("--channels must be >= 1");
      }
      matrix(flag);
    } else if (flag == "--requests") {
      opt.requests =
          static_cast<std::size_t>(parse_u64(flag, next(), SIZE_MAX));
      if (opt.requests == 0) {
        throw std::invalid_argument("--requests must be >= 1");
      }
      matrix(flag);
    } else if (flag == "--threads") {
      opt.threads = static_cast<int>(parse_u64(flag, next(), INT_MAX));
    } else if (flag == "--run-threads") {
      opt.run_threads = static_cast<int>(parse_u64(flag, next(), INT_MAX));
      matrix(flag);
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, next());
      matrix(flag);
    } else if (flag == "--line-bytes") {
      opt.line_bytes =
          static_cast<std::uint32_t>(parse_u64(flag, next(), UINT32_MAX));
      if (opt.line_bytes == 0) {
        throw std::invalid_argument("--line-bytes must be >= 1");
      }
      matrix(flag);
    } else if (flag == "--cache-mb") {
      // Bounded so the capacity in bytes fits comfortably in 64 bits.
      opt.cache_mb = parse_u64(flag, next(), 1ull << 30);
      if (*opt.cache_mb == 0) {
        throw std::invalid_argument("--cache-mb must be >= 1");
      }
      matrix(flag);
    } else if (flag == "--cache-ways") {
      opt.cache_ways = static_cast<int>(parse_u64(flag, next(), INT_MAX));
      if (*opt.cache_ways == 0) {
        throw std::invalid_argument("--cache-ways must be >= 1");
      }
      matrix(flag);
    } else if (flag == "--cache-policy") {
      opt.cache_policy = next();
      (void)config::cache_policy_from_name(*opt.cache_policy);
      matrix(flag);
    } else if (flag == "--schedule") {
      opt.schedule = next();
      (void)sched::policy_from_name(opt.schedule);
      matrix(flag);
    } else if (flag == "--read-q") {
      opt.read_q = static_cast<int>(parse_u64(flag, next(), INT_MAX));
      matrix(flag);
    } else if (flag == "--write-q") {
      opt.write_q = static_cast<int>(parse_u64(flag, next(), INT_MAX));
      matrix(flag);
    } else if (flag == "--drain-high") {
      opt.drain_high = static_cast<int>(parse_u64(flag, next(), INT_MAX));
      matrix(flag);
    } else if (flag == "--drain-low") {
      opt.drain_low = static_cast<int>(parse_u64(flag, next(), INT_MAX));
      matrix(flag);
    } else if (flag == "--config") {
      opt.config = next();
      if (opt.config.empty()) {
        throw std::invalid_argument("--config requires a non-empty path");
      }
    } else if (flag == "--device-file") {
      const std::string& path = next();
      if (path.empty()) {
        throw std::invalid_argument("--device-file requires a non-empty path");
      }
      opt.device_files.push_back(path);
      matrix(flag);
    } else if (flag == "--dump-config") {
      opt.dump_config = next();
      if (opt.dump_config.empty()) {
        throw std::invalid_argument("--dump-config requires a non-empty path");
      }
    } else if (flag == "--trace-file") {
      opt.trace_file = next();
      if (opt.trace_file.empty()) {
        throw std::invalid_argument("--trace-file requires a non-empty path");
      }
      matrix(flag);
    } else if (flag == "--cpu-ghz") {
      opt.cpu_ghz = parse_decimal(flag, next(), /*positive=*/true);
      matrix(flag);
    } else if (flag == "--dump-trace") {
      opt.dump_trace = next();
      if (opt.dump_trace.empty()) {
        throw std::invalid_argument("--dump-trace requires a non-empty path");
      }
      matrix(flag);
    } else if (flag == "--tenants") {
      opt.tenants = next();
      if (opt.tenants.empty()) {
        throw std::invalid_argument("--tenants requires a non-empty list");
      }
      matrix(flag);
    } else if (flag == "--tenant-mapping") {
      opt.tenant_mapping = next();
      (void)config::tenant_mapping_from_name(opt.tenant_mapping);
      matrix(flag);
    } else if (flag == "--tenant-tokens") {
      opt.tenant_tokens = static_cast<int>(parse_u64(flag, next(), INT_MAX));
      if (*opt.tenant_tokens == 0) {
        throw std::invalid_argument("--tenant-tokens must be >= 1");
      }
      matrix(flag);
    } else if (flag == "--starvation-cap") {
      opt.starvation_cap = static_cast<int>(parse_u64(flag, next(), INT_MAX));
      if (*opt.starvation_cap == 0) {
        throw std::invalid_argument("--starvation-cap must be >= 1");
      }
      matrix(flag);
    } else if (flag == "--trace-out") {
      opt.trace_out = next();
      if (opt.trace_out.empty()) {
        throw std::invalid_argument("--trace-out requires a non-empty path");
      }
      matrix(flag);
    } else if (flag == "--trace-limit") {
      opt.trace_limit = parse_u64(flag, next());
      matrix(flag);
    } else if (flag == "--metrics-interval") {
      opt.metrics_interval_ns = parse_u64(flag, next(), UINT64_MAX / 1000);
      if (*opt.metrics_interval_ns == 0) {
        throw std::invalid_argument(
            "--metrics-interval must be >= 1 (nanoseconds per epoch)");
      }
      matrix(flag);
    } else if (flag == "--metrics-csv") {
      opt.metrics_csv = next();
      if (opt.metrics_csv.empty()) {
        throw std::invalid_argument("--metrics-csv requires a non-empty path");
      }
      matrix(flag);
    } else if (flag == "--assert-slo") {
      opt.assert_slo = next();
      if (opt.assert_slo.empty()) {
        throw std::invalid_argument(
            "--assert-slo requires a predicate list, e.g. "
            "\"p99_read_ns<=2500,requests_per_s>=5e6\"");
      }
      matrix(flag);
    } else if (flag == "--json") {
      opt.json_path = next();
      if (opt.json_path.empty()) {
        throw std::invalid_argument("--json requires a non-empty path");
      }
    } else {
      throw std::invalid_argument("unknown flag '" + flag +
                                  "' (see --help)");
    }
  }

  // Validate names, files and flag combinations eagerly so a typo, an
  // inconsistent cache geometry or a malformed config document fails
  // with exit 2 before any simulation runs. `all` is flat-only, so
  // cache overrides cannot invalidate it.
  if (!opt.config.empty() && !matrix_flag.empty()) {
    throw std::invalid_argument(
        "--config cannot be combined with " + matrix_flag +
        " (the config file defines the whole experiment)");
  }
  if (!opt.config.empty()) {
    // Parse and schema-check the document now, including the pieces the
    // schema alone cannot settle: registry tokens, profile names and the
    // trace file must all resolve so every typo is an exit-2 parse
    // failure, exactly like its CLI-flag equivalent. The sweep re-reads
    // the file later — config documents are small, and re-parsing keeps
    // Options a plain value struct.
    const auto spec =
        config::parse_experiment_file(opt.config, registry_resolver());
    try {
      for (const auto& token : spec.device_tokens) {
        (void)resolve_device_specs(token);
      }
      for (const auto& name : spec.workload_names) {
        if (name != "all") (void)memsim::profile_by_name(name);
      }
    } catch (const std::exception& e) {
      throw std::invalid_argument(opt.config + ": " + e.what());
    }
    if (!spec.trace_file.empty() && !file_readable(spec.trace_file)) {
      throw std::invalid_argument(opt.config + ": trace_file: cannot open '" +
                                  spec.trace_file + "'");
    }
  }
  for (const auto& path : opt.device_files) {
    (void)config::parse_device_file(path, registry_resolver());
  }
  if (opt.tenants.empty()) {
    if (!opt.tenant_mapping.empty()) {
      throw std::invalid_argument(
          "--tenant-mapping requires --tenants (there are no streams to map)");
    }
  } else {
    if (opt.workload_given) {
      throw std::invalid_argument(
          "--tenants and --workload cannot be combined (the tenant list "
          "defines the demand; give each tenant its own workload)");
    }
    if (!opt.trace_file.empty()) {
      throw std::invalid_argument(
          "--tenants and --trace-file cannot be combined (use the "
          "name=@trace-file tenant form instead)");
    }
    if (!opt.dump_trace.empty()) {
      throw std::invalid_argument(
          "--tenants and --dump-trace cannot be combined (a trace file holds "
          "one request stream)");
    }
    // Parse the list now so malformed entries, unknown profiles,
    // duplicate names and unreadable trace tenants all exit 2.
    for (const auto& tenant : tenants_from_options(opt)) {
      if (!tenant.trace_file.empty() && !file_readable(tenant.trace_file)) {
        throw std::invalid_argument("--tenants: tenant '" + tenant.name +
                                    "': cannot open '" + tenant.trace_file +
                                    "'");
      }
    }
  }
  if (!opt.trace_file.empty() && !opt.dump_trace.empty()) {
    throw std::invalid_argument(
        "--trace-file and --dump-trace cannot be combined (one replays a "
        "trace, the other writes one)");
  }
  if (!opt.dump_trace.empty() && !opt.dump_config.empty()) {
    throw std::invalid_argument(
        "--dump-trace and --dump-config cannot be combined");
  }
  if (!opt.trace_file.empty() && !file_readable(opt.trace_file)) {
    // Fail a bad path at parse time (exit 2), not deep inside a sweep.
    throw std::invalid_argument("--trace-file: cannot open '" +
                                opt.trace_file + "'");
  }
  if (!opt.dump_trace.empty() && opt.workload == "all") {
    throw std::invalid_argument(
        "--dump-trace requires a single --workload (a trace file holds one "
        "request stream, not a matrix)");
  }
  if (opt.device != "all") {
    (void)resolve_device_specs(
        opt.device, HybridOverrides{.cache_mb = opt.cache_mb,
                                    .cache_ways = opt.cache_ways,
                                    .cache_policy = opt.cache_policy});
  }
  if (opt.workload != "all") (void)memsim::profile_by_name(opt.workload);
  // Inconsistent scheduler flags (depths/watermarks without --schedule,
  // watermarks the bounded queue can never reach) also exit 2 here.
  (void)scheduler_from_options(opt);
  // Same for the telemetry flags (--trace-limit without --trace-out,
  // --metrics-csv without --metrics-interval).
  (void)telemetry_from_options(opt);
  // And the host-observability flags: a malformed or unknown-metric
  // --assert-slo expression exits 2 before any simulation.
  (void)prof_from_options(opt);
  return opt;
}

std::optional<sched::ControllerConfig> scheduler_from_options(
    const Options& options) {
  if (options.schedule.empty()) {
    if (options.read_q || options.write_q || options.drain_high ||
        options.drain_low) {
      throw std::invalid_argument(
          "--read-q/--write-q/--drain-high/--drain-low require --schedule");
    }
    if (options.tenant_tokens || options.starvation_cap) {
      throw std::invalid_argument(
          "--tenant-tokens/--starvation-cap require --schedule");
    }
    return std::nullopt;
  }
  auto config = sched::ControllerConfig::with_depths(
      sched::policy_from_name(options.schedule), options.read_q.value_or(32),
      options.write_q.value_or(32));
  // Only read-first drains writes; accepting watermarks for the other
  // policies would silently ignore them (the --cache-* precedent).
  if (config.policy != sched::Policy::kReadFirst &&
      (options.drain_high || options.drain_low)) {
    throw std::invalid_argument(
        "--drain-high/--drain-low apply to --schedule read-first only "
        "(the " + options.schedule + " policy never drains writes)");
  }
  if (options.drain_high) config.drain_high_watermark = *options.drain_high;
  if (options.drain_low) config.drain_low_watermark = *options.drain_low;
  // The fairness knobs refine their own policy only, for the same
  // reason: every other policy would silently ignore them.
  if (options.tenant_tokens && config.policy != sched::Policy::kTokenBudget) {
    throw std::invalid_argument(
        "--tenant-tokens applies to --schedule token-budget only (the " +
        options.schedule + " policy keeps no token buckets)");
  }
  if (options.starvation_cap && config.policy != sched::Policy::kFrFcfsCap) {
    throw std::invalid_argument(
        "--starvation-cap applies to --schedule frfcfs-cap only (the " +
        options.schedule + " policy keeps no starvation counters)");
  }
  if (options.tenant_tokens) config.tenant_tokens = *options.tenant_tokens;
  if (options.starvation_cap) config.starvation_cap = *options.starvation_cap;
  config.validate();
  return config;
}

std::vector<config::TenantSpec> tenants_from_options(const Options& options) {
  std::vector<config::TenantSpec> tenants;
  if (options.tenants.empty()) return tenants;
  const char* const shape =
      "--tenants entries look like name=workload[:interarrival_ns"
      "[:burstiness]] or name=@trace-file";
  std::stringstream list(options.tenants);
  std::string entry;
  while (std::getline(list, entry, ',')) {
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      throw std::invalid_argument(std::string(shape) + "; got '" + entry +
                                  "'");
    }
    config::TenantSpec spec;
    spec.name = entry.substr(0, eq);
    const std::string body = entry.substr(eq + 1);
    if (body.front() == '@') {
      if (body.size() == 1) {
        throw std::invalid_argument("--tenants: tenant '" + spec.name +
                                    "': '@' needs a trace-file path");
      }
      spec.trace_file = body.substr(1);
    } else {
      std::vector<std::string> parts;
      std::stringstream fields(body);
      std::string part;
      while (std::getline(fields, part, ':')) parts.push_back(part);
      if (parts.empty() || parts.size() > 3) {
        throw std::invalid_argument(std::string(shape) + "; got '" + entry +
                                    "'");
      }
      try {
        spec.profile = memsim::profile_by_name(parts[0]);
      } catch (const std::exception& e) {
        throw std::invalid_argument("--tenants: tenant '" + spec.name +
                                    "': " + e.what());
      }
      // Zero is fine: a zero rate/burstiness keeps the default meaning.
      if (parts.size() > 1) {
        spec.interarrival_ns =
            parse_decimal("--tenants: interarrival_ns", parts[1], false);
      }
      if (parts.size() > 2) {
        spec.burstiness =
            parse_decimal("--tenants: burstiness", parts[2], false);
      }
    }
    tenants.push_back(std::move(spec));
  }
  // Name order — the same deterministic stream ordering the [tenant]
  // config sections get, so ids and seeds never depend on list order.
  std::sort(tenants.begin(), tenants.end(),
            [](const config::TenantSpec& a, const config::TenantSpec& b) {
              return a.name < b.name;
            });
  try {
    config::validate_tenants(tenants);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("--tenants: ") + e.what());
  }
  return tenants;
}

telemetry::TelemetrySpec telemetry_from_options(const Options& options) {
  telemetry::TelemetrySpec spec;
  spec.trace_path = options.trace_out;
  if (options.trace_limit) {
    if (options.trace_out.empty()) {
      throw std::invalid_argument(
          "--trace-limit requires --trace-out (there is no event budget to "
          "cap without a trace)");
    }
    spec.trace_limit = *options.trace_limit;
  }
  if (options.metrics_interval_ns) {
    spec.metrics_interval_ps = *options.metrics_interval_ns * 1000;
  }
  if (!options.metrics_csv.empty()) {
    if (!options.metrics_interval_ns) {
      throw std::invalid_argument(
          "--metrics-csv requires --metrics-interval (there is no timeline "
          "to write without an epoch length)");
    }
    spec.metrics_csv = options.metrics_csv;
  }
  spec.validate();
  return spec;
}

prof::ProfSpec prof_from_options(const Options& options) {
  prof::ProfSpec spec;
  spec.profile = options.profile;
  spec.progress_ms = options.progress_ms;
  if (!options.assert_slo.empty()) {
    try {
      spec.slo = prof::parse_slo(options.assert_slo);
    } catch (const std::exception& e) {
      throw std::invalid_argument(std::string("--assert-slo: ") + e.what());
    }
  }
  spec.validate();
  return spec;
}

std::string usage() {
  std::ostringstream os;
  os << "comet_sim — trace-driven sweep driver for the COMET memory study\n"
     << "\n"
     << "Usage: comet_sim [options]\n"
     << "  --device <name|all>    architecture to simulate (default: all)\n"
     << "                         one of: all";
  for (const auto& name : known_devices()) os << ", " << name;
  os << ",\n                         hybrid-all";
  for (const auto& name : known_hybrid_devices()) os << ", " << name;
  os << "\n"
     << "  --workload <name|all>  SPEC-like profile (default: all)\n"
     << "                         one of: all";
  for (const auto& profile : memsim::spec_like_profiles()) {
    os << ", " << profile.name;
  }
  os << "\n"
     << "  --config <path>        run the experiment described by a TOML\n"
     << "                         spec (devices, workloads, sweep axes);\n"
     << "                         conflicts with the matrix flags above\n"
     << "  --device-file <path>   add a device defined in a [device] TOML\n"
     << "                         file to the sweep (repeatable)\n"
     << "  --dump-config <path>   write the fully resolved experiment spec\n"
     << "                         (config analogue of --dump-trace) and exit\n"
     << "  --channels N           override the device channel count\n"
     << "  --requests N           requests per run (default: 20000)\n"
     << "  --threads N            sweep worker threads (default: hardware)\n"
     << "  --run-threads N        per-channel replay worker threads inside\n"
     << "                         each scheduled or hybrid run (default:\n"
     << "                         1 = inline; 0 = hardware threads);\n"
     << "                         flat direct replay is always serial (too\n"
     << "                         cheap per request for lanes to pay);\n"
     << "                         results are bit-identical for any value\n"
     << "  --seed N               trace RNG seed (default: 42)\n"
     << "  --line-bytes N         request line size (default: 128)\n"
     << "  --cache-mb N           hybrid devices: DRAM cache capacity [MiB]\n"
     << "  --cache-ways N         hybrid devices: cache associativity\n"
     << "  --cache-policy <p>     hybrid devices: write-allocate (default)\n"
     << "                         or write-no-allocate\n"
     << "  --schedule <policy>    engage the memory-controller scheduler:\n"
     << "                         fcfs (in-order), frfcfs (open-row reuse),\n"
     << "                         read-first (write-drain watermarks),\n"
     << "                         token-budget or frfcfs-cap (fairness-aware\n"
     << "                         FR-FCFS variants; see --list-policies)\n"
     << "  --read-q N             scheduler read-queue depth per channel\n"
     << "                         (default: 32; 0 = unbounded)\n"
     << "  --write-q N            scheduler write-queue depth per channel\n"
     << "                         (default: 32; 0 = unbounded)\n"
     << "  --drain-high N         write-drain high watermark, read-first\n"
     << "                         only (default: 7/8 of the write-queue\n"
     << "                         depth)\n"
     << "  --drain-low N          write-drain low watermark, read-first\n"
     << "                         only (default: 3/8 of the write-queue\n"
     << "                         depth)\n"
     << "  --tenants <list>       multi-tenant run: comma-separated streams\n"
     << "                         name=workload[:interarrival_ns[:burst]]\n"
     << "                         or name=@trace-file, merged into one\n"
     << "                         interleaved run with per-tenant latency,\n"
     << "                         slowdown-vs-alone and Jain fairness stats\n"
     << "  --tenant-mapping <m>   tenant address spaces: partition (default,\n"
     << "                         disjoint 1 TiB slabs) or interleave\n"
     << "                         (line-granular sharing, maximal contention)\n"
     << "  --tenant-tokens N      token-budget policy: per-tenant scheduling\n"
     << "                         tokens per refill (default: 64)\n"
     << "  --starvation-cap N     frfcfs-cap policy: times a queued tenant\n"
     << "                         may be passed over before it outranks row\n"
     << "                         hits (default: 16)\n"
     << "  --trace-file <path>    replay an on-disk NVMain trace (streamed,\n"
     << "                         O(1) memory) instead of a synthetic\n"
     << "                         workload; ignores --workload/--requests\n"
     << "  --cpu-ghz X            CPU clock for trace cycle->time\n"
     << "                         conversion (default: 2.0)\n"
     << "  --dump-trace <path>    write the synthesized trace for a single\n"
     << "                         --workload to <path> and exit\n"
     << "  --trace-out <path>     write a Chrome trace-event JSON of every\n"
     << "                         request's lifecycle (open in Perfetto:\n"
     << "                         one track per channel and bank)\n"
     << "  --trace-limit N        cap on recorded trace events per run\n"
     << "                         (default: 1000000; 0 = unlimited); the\n"
     << "                         trace records what was dropped\n"
     << "  --metrics-interval N   sample an epoch metrics time-series every\n"
     << "                         N ns (bandwidth, queue occupancy, drain\n"
     << "                         activity, latency percentiles) into the\n"
     << "                         --json report's timeline array\n"
     << "  --metrics-csv <path>   also write the timeline as CSV\n"
     << "  --profile              record a host-side run profile (stage wall\n"
     << "                         times, lane utilization, queue stalls,\n"
     << "                         peak RSS) into each record's JSON host\n"
     << "                         object and a console table; never changes\n"
     << "                         the simulated results\n"
     << "  --progress[=ms]        live heartbeat on stderr while the sweep\n"
     << "                         runs: completed/total requests, req/s,\n"
     << "                         ETA, RSS (default period: 500 ms)\n"
     << "  --assert-slo <list>    comma-separated run health gates over\n"
     << "                         the report metrics, e.g.\n"
     << "                         \"p99_read_ns<=2500,requests_per_s>=5e6\";\n"
     << "                         any violated predicate exits 3\n"
     << "  --json <path>          also write machine-readable JSON\n"
     << "  --csv                  print CSV instead of aligned tables\n"
     << "  --list-devices         print every device token and exit\n"
     << "  --list-workloads       print every workload name and exit\n"
     << "  --list-policies        print every scheduling policy (token,\n"
     << "                         behaviour, knobs) and exit\n"
     << "  --help                 this text\n";
  return os.str();
}

}  // namespace comet::driver
