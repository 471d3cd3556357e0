#include "driver/options.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "config/serialize.hpp"
#include "driver/registry.hpp"
#include "driver/sweep.hpp"
#include "memsim/trace_gen.hpp"

namespace comet::driver {

namespace toml = config::toml;

struct ParseState {
  Options options;
  /// The experiment flags, lowered. Its empty source leaves the
  /// report's config_file empty for flag runs.
  toml::Document doc;
  std::string config;         ///< --config path.
  HybridOverrides overrides;  ///< --cache-*.
  std::set<std::string> given;
  /// First experiment-defining flag, for the --config conflict: a
  /// config file owns the whole experiment.
  std::string experiment_flag;
  /// The flags behind each document line: an argument position, or the
  /// line of a lowered section (every flag lowered into it).
  std::map<std::uint64_t, std::vector<std::string>> flags_at;
  std::uint64_t next_section_line = 0;

  void defines_experiment(const std::string& flag) {
    if (experiment_flag.empty()) experiment_flag = flag;
  }
};

namespace {

/// Digits only: stoull would skip whitespace and accept '-'/'+' signs
/// (wrapping negatives to huge values), so screen the characters first.
std::uint64_t parse_count(const std::string& flag, const std::string& arg,
                          std::uint64_t max) {
  std::uint64_t parsed = 0;
  try {
    if (arg.empty() ||
        arg.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(arg);
    }
    parsed = std::stoull(arg);
  } catch (const std::exception&) {
    throw std::invalid_argument(
        flag + " expects a non-negative integer, got '" + arg + "'");
  }
  if (parsed > max) {
    throw std::invalid_argument(flag + " value " + arg +
                                " exceeds the maximum of " +
                                std::to_string(max));
  }
  return parsed;
}

std::uint64_t parse_positive(const std::string& flag, const std::string& arg,
                             std::uint64_t max) {
  const std::uint64_t parsed = parse_count(flag, arg, max);
  if (parsed == 0) throw std::invalid_argument(flag + " must be >= 1");
  return parsed;
}

/// Plain decimal only (digits, at most one '.', at least one digit): no
/// signs, exponents, hex floats, inf/nan or locale surprises — the same
/// strictness as parse_count. `what` leads the diagnostic.
double parse_decimal(const std::string& what, const std::string& arg) {
  errno = 0;
  const bool plain =
      arg.find_first_of("0123456789") != std::string::npos &&
      arg.find_first_not_of("0123456789.") == std::string::npos &&
      arg.find('.') == arg.rfind('.');
  const double parsed = plain ? std::strtod(arg.c_str(), nullptr) : 0.0;
  if (!plain || errno != 0 || !std::isfinite(parsed)) {
    throw std::invalid_argument(
        what + " expects a non-negative decimal number, got '" + arg + "'");
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

toml::Value string_value(std::string text, std::uint64_t line) {
  toml::Value value;
  value.str = std::move(text);
  value.line = line;
  return value;
}

toml::Value decimal_value(double number, std::uint64_t line) {
  toml::Value value;
  value.type = toml::Value::Type::kFloat;
  value.number = number;
  value.line = line;
  return value;
}

/// The [name] table of the lowered document, created on first use with
/// a line of its own that maps back to every flag lowered into it.
toml::Table& section(ParseState& s, const std::string& name,
                     const std::string& flag) {
  auto [it, created] = s.doc.root.children.try_emplace(name);
  toml::Table& table = it->second;
  if (created) {
    table.line = s.next_section_line++;
    table.defined = true;
  }
  auto& flags = s.flags_at[table.line];
  if (std::ranges::find(flags, flag) == flags.end()) flags.push_back(flag);
  return table;
}

/// --tenants: one [tenant.NAME] sub-section per entry, replacing the
/// streams of an earlier --tenants (the last flag wins).
void lower_tenants(toml::Table& tenant, const std::string& list,
                   std::uint64_t line) {
  const std::string shape =
      "--tenants entries look like name=workload[:interarrival_ns"
      "[:burstiness]] or name=@trace-file";
  tenant.children.clear();
  std::stringstream entries(list);
  std::string entry;
  while (std::getline(entries, entry, ',')) {
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      throw std::invalid_argument(shape + "; got '" + entry + "'");
    }
    const std::string name = entry.substr(0, eq);
    const std::string body = entry.substr(eq + 1);
    const auto [it, fresh] = tenant.children.try_emplace(name);
    if (!fresh) {
      throw std::invalid_argument("--tenants: duplicate tenant name '" +
                                  name + "'");
    }
    toml::Table& stream = it->second;
    stream.line = line;
    stream.defined = true;
    if (body.front() == '@') {
      if (body.size() == 1) {
        throw std::invalid_argument("--tenants: tenant '" + name +
                                    "': '@' needs a trace-file path");
      }
      stream.values["trace_file"] = string_value(body.substr(1), line);
      continue;
    }
    std::vector<std::string> parts;
    std::stringstream fields(body);
    std::string part;
    while (std::getline(fields, part, ':')) parts.push_back(part);
    if (parts.empty() || parts.size() > 3) {
      throw std::invalid_argument(shape + "; got '" + entry + "'");
    }
    stream.values["workload"] = string_value(parts[0], line);
    // Zero is fine: a zero rate/burstiness keeps the default meaning.
    if (parts.size() > 1) {
      stream.values["interarrival_ns"] = decimal_value(
          parse_decimal("--tenants: interarrival_ns", parts[1]), line);
    }
    if (parts.size() > 2) {
      stream.values["burstiness"] = decimal_value(
          parse_decimal("--tenants: burstiness", parts[2]), line);
    }
  }
}

/// Lowers one keyed flag's argument to its document key; the value
/// remembers the argument position as its line.
void lower(ParseState& s, const Flag& row, const std::string& arg,
           std::uint64_t line) {
  const std::string_view key = row.key;
  const std::size_t dot = key.find('.');
  toml::Table& table = section(s, std::string(key.substr(0, dot)), row.name);
  if (row.value == FlagValue::kTenants) {
    lower_tenants(table, arg, line);
    return;
  }
  toml::Value value = string_value(arg, line);
  if (row.value == FlagValue::kNone) {
    value.type = toml::Value::Type::kBoolean;
    value.boolean = true;
  } else if (row.value == FlagValue::kCount ||
             row.value == FlagValue::kPeriod) {
    value.type = toml::Value::Type::kInteger;
    value.integer =
        static_cast<std::int64_t>(parse_count(row.name, arg, INT64_MAX));
    value.number = static_cast<double>(value.integer);
  } else if (row.value == FlagValue::kDecimal) {
    value = decimal_value(parse_decimal(row.name, arg), line);
  }
  table.values[std::string(key.substr(dot + 1))] = std::move(value);
}

std::string device_choices() {
  std::string out = "all";
  for (const auto& name : known_devices()) out += ", " + name;
  out += ", hybrid-all";
  for (const auto& name : known_hybrid_devices()) out += ", " + name;
  return out;
}

std::string workload_choices() {
  std::string out = "all";
  for (const auto& profile : memsim::spec_like_profiles()) {
    out += ", " + profile.name;
  }
  return out;
}

using F = FlagValue;
using Arg = const std::string&;

// Columns: name, metavar, value, document key (nullptr: driver row),
// help, driver setter, refined flag.
const Flag kFlags[] = {
    {"--device", "<name|all>", F::kText, "experiment.devices",
     "architecture to simulate (default: all)"},
    {"--workload", "<name|all>", F::kText, "experiment.workloads",
     "SPEC-like profile (default: all)"},
    {"--config", "<path>", F::kText, nullptr,
     "run the experiment described by a TOML spec (devices, workloads, "
     "sweep axes); conflicts with every flag that has a config key and "
     "with --device-file, --cache-* and --dump-trace",
     [](ParseState& s, Arg, Arg path) { s.config = path; }},
    {"--device-file", "<path>", F::kText, nullptr,
     "add the device defined in a [device] TOML file to the sweep "
     "(repeatable; without --device it replaces the default all)",
     [](ParseState& s, Arg flag, Arg path) {
       // Parsed alone first, so a bad file fails with its own file:line;
       // its [device] table then joins the document as a [[device]].
       (void)config::parse_device_file(path, registry_resolver());
       s.doc.root.arrays["device"].push_back(
           toml::parse_file(path).root.children.at("device"));
       s.defines_experiment(flag);
     }},
    {"--dump-config", "<path>", F::kText, nullptr,
     "write the fully resolved experiment spec (config analogue of "
     "--dump-trace) and exit",
     [](ParseState& s, Arg, Arg path) { s.options.dump_config = path; }},
    {"--channels", "N", F::kCount, "experiment.channels",
     "override the device channel count (default: 0 = each device's own)"},
    {"--requests", "N", F::kCount, "experiment.requests",
     "requests per run (default: 20000)"},
    {"--threads", "N", F::kCount, nullptr,
     "sweep worker threads (default: hardware)",
     [](ParseState& s, Arg flag, Arg arg) {
       s.options.threads = static_cast<int>(parse_count(flag, arg, INT_MAX));
     }},
    {"--run-threads", "N", F::kCount, "controller.run_threads",
     "per-channel replay worker threads inside each scheduled or hybrid "
     "run (default: 1 = inline; 0 = hardware threads); flat direct "
     "replay is always serial (too cheap per request for lanes to pay); "
     "results are bit-identical for any value"},
    {"--seed", "N", F::kCount, "experiment.seed",
     "trace RNG seed (default: 42)"},
    {"--line-bytes", "N", F::kCount, "experiment.line_bytes",
     "request line size (default: 128)"},
    {"--cache-mb", "N", F::kCount, nullptr,
     "hybrid devices: DRAM cache capacity [MiB]",
     [](ParseState& s, Arg flag, Arg arg) {
       // Bounded so the capacity in bytes fits comfortably in 64 bits.
       s.overrides.cache_mb = parse_positive(flag, arg, 1ull << 30);
       s.defines_experiment(flag);
     }},
    {"--cache-ways", "N", F::kCount, nullptr,
     "hybrid devices: cache associativity",
     [](ParseState& s, Arg flag, Arg arg) {
       s.overrides.cache_ways =
           static_cast<int>(parse_positive(flag, arg, INT_MAX));
       s.defines_experiment(flag);
     }},
    {"--cache-policy", "<p>", F::kText, nullptr,
     "hybrid devices: write-allocate (default) or write-no-allocate",
     [](ParseState& s, Arg flag, Arg arg) {
       (void)config::cache_policy_from_name(arg);
       s.overrides.cache_policy = arg;
       s.defines_experiment(flag);
     }},
    {"--schedule", "<policy>", F::kText, "controller.policy",
     "engage the memory-controller scheduler: fcfs (in-order), frfcfs "
     "(open-row reuse), read-first (write-drain watermarks), token-budget "
     "or frfcfs-cap (fairness-aware FR-FCFS variants; see "
     "--list-policies)"},
    {"--read-q", "N", F::kCount, "controller.read_queue_depth",
     "scheduler read-queue depth per channel (default: 32; 0 = unbounded)",
     nullptr, "--schedule"},
    {"--write-q", "N", F::kCount, "controller.write_queue_depth",
     "scheduler write-queue depth per channel (default: 32; 0 = "
     "unbounded)",
     nullptr, "--schedule"},
    {"--drain-high", "N", F::kCount, "controller.drain_high_watermark",
     "write-drain high watermark, read-first only (default: 7/8 of the "
     "write-queue depth)",
     nullptr, "--schedule"},
    {"--drain-low", "N", F::kCount, "controller.drain_low_watermark",
     "write-drain low watermark, read-first only (default: 3/8 of the "
     "write-queue depth)",
     nullptr, "--schedule"},
    {"--tenants", "<list>", F::kTenants, "tenant.NAME",
     "multi-tenant run: comma-separated streams "
     "name=workload[:interarrival_ns[:burst]] or name=@trace-file, merged "
     "into one interleaved run with per-tenant latency, slowdown-vs-alone "
     "and Jain fairness stats"},
    {"--tenant-mapping", "<m>", F::kText, "tenant.mapping",
     "tenant address spaces: partition (default, disjoint 1 TiB slabs) or "
     "interleave (line-granular sharing, maximal contention)"},
    {"--tenant-tokens", "N", F::kCount, "controller.tenant_tokens",
     "token-budget policy: per-tenant scheduling tokens per refill "
     "(default: 64)",
     nullptr, "--schedule"},
    {"--starvation-cap", "N", F::kCount, "controller.starvation_cap",
     "frfcfs-cap policy: times a queued tenant may be passed over before "
     "it outranks row hits (default: 16)",
     nullptr, "--schedule"},
    {"--trace-file", "<path>", F::kText, "experiment.trace_file",
     "replay an on-disk NVMain trace (streamed, O(1) memory) instead of a "
     "synthetic workload; replay ignores --requests/--seed"},
    {"--cpu-ghz", "X", F::kDecimal, "experiment.cpu_ghz",
     "CPU clock for trace cycle->time conversion (default: 2.0)"},
    {"--dump-trace", "<path>", F::kText, nullptr,
     "write the synthesized trace for a single --workload to <path> and "
     "exit",
     [](ParseState& s, Arg flag, Arg path) {
       s.options.dump_trace = path;
       s.defines_experiment(flag);
     }},
    {"--trace-out", "<path>", F::kText, "telemetry.trace_out",
     "write a Chrome trace-event JSON of every request's lifecycle (open "
     "in Perfetto: one track per channel and bank)"},
    {"--trace-limit", "N", F::kCount, "telemetry.trace_limit",
     "cap on recorded trace events per run (default: 1000000; 0 = "
     "unlimited); the trace records what was dropped"},
    {"--metrics-interval", "N", F::kCount, "telemetry.metrics_interval_ns",
     "sample an epoch metrics time-series every N ns (bandwidth, queue "
     "occupancy, drain activity, latency percentiles) into the --json "
     "report's timeline array"},
    {"--metrics-csv", "<path>", F::kText, "telemetry.metrics_csv",
     "also write the timeline as CSV"},
    {"--profile", "", F::kNone, "profile.enabled",
     "record a host-side run profile (stage wall times, lane utilization, "
     "queue stalls, peak RSS) into each record's JSON host object and a "
     "console table; never changes the simulated results"},
    {"--progress", "[=ms]", F::kPeriod, "profile.progress_ms",
     "live heartbeat on stderr while the sweep runs: completed/total "
     "requests, req/s, ETA, RSS (default period: 500 ms)"},
    {"--assert-slo", "<list>", F::kText, "slo.assert",
     "comma-separated run health gates over the --json record's numbers, "
     "e.g. \"p99_read_latency_ns<=2500,host.requests_per_s>=5e6\"; any "
     "violated predicate exits 3"},
    {"--json", "<path>", F::kText, nullptr,
     "also write machine-readable JSON",
     [](ParseState& s, Arg, Arg path) { s.options.json_path = path; }},
    {"--csv", "", F::kNone, nullptr, "print CSV instead of aligned tables",
     [](ParseState& s, Arg, Arg) { s.options.csv = true; }},
    {"--list-devices", "", F::kNone, nullptr,
     "print every device token and exit",
     [](ParseState& s, Arg, Arg) { s.options.list_devices = true; }},
    {"--list-workloads", "", F::kNone, nullptr,
     "print every workload name and exit",
     [](ParseState& s, Arg, Arg) { s.options.list_workloads = true; }},
    {"--list-policies", "", F::kNone, nullptr,
     "print every scheduling policy (token, behaviour, knobs) and exit",
     [](ParseState& s, Arg, Arg) { s.options.list_policies = true; }},
    {"--help", "", F::kNone, nullptr, "this text (also -h)",
     [](ParseState& s, Arg, Arg) { s.options.help = true; }},
};

/// The period of a bare --progress: two heartbeat ticks a second.
constexpr const char* kDefaultProgressMs = "500";

const Flag* find_flag(std::string_view name) {
  for (const Flag& row : kFlags) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

/// Reads the lowered document with the reader --config files use. A
/// reader diagnostic is re-raised naming the flags behind its line.
config::ExperimentSpec read_flags(ParseState& s) {
  toml::Table& experiment = s.doc.root.children.at("experiment");
  // A flag run defaults to every flat device and every workload.
  if (!s.doc.root.arrays.count("device")) {
    experiment.values.try_emplace("devices", string_value("all", 0));
  }
  if (!s.doc.root.children.count("tenant") &&
      !experiment.values.count("trace_file")) {
    experiment.values.try_emplace("workloads", string_value("all", 0));
  }
  config::ExperimentSpec spec;
  try {
    spec = config::parse_experiment(s.doc, registry_resolver());
  } catch (const toml::ParseError& e) {
    std::string flags;
    if (const auto it = s.flags_at.find(e.line());
        e.line() != 0 && it != s.flags_at.end()) {
      for (const auto& flag : it->second) {
        flags += (flags.empty() ? "" : "/") + flag;
      }
      flags += ": ";
    }
    throw std::invalid_argument(flags + e.message());
  }
  // Fail a bad path at parse time (exit 2), not deep inside a sweep.
  if (!spec.trace_file.empty() && !file_readable(spec.trace_file)) {
    throw std::invalid_argument("--trace-file: cannot open '" +
                                spec.trace_file + "'");
  }
  for (const auto& tenant : spec.tenants) {
    if (!tenant.trace_file.empty() && !file_readable(tenant.trace_file)) {
      throw std::invalid_argument("--tenants: tenant '" + tenant.name +
                                  "': cannot open '" + tenant.trace_file +
                                  "'");
    }
  }
  // The --cache-* overrides target every hybrid of the matrix, token-
  // or file-defined alike, so they apply to the resolved devices.
  spec = resolve_experiment(std::move(spec));
  for (auto& device : spec.devices) {
    device = apply_hybrid_overrides(std::move(device), s.overrides);
  }
  return spec;
}

/// Parses a --config document and resolves its registry tokens, profile
/// names and trace file now, so a typo inside the document is a
/// parse-time failure exactly like its flag equivalent.
config::ExperimentSpec read_config(const std::string& path) {
  auto spec = config::parse_experiment_file(path, registry_resolver());
  try {
    spec = resolve_experiment(std::move(spec));
  } catch (const std::exception& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
  if (!spec.trace_file.empty() && !file_readable(spec.trace_file)) {
    throw std::invalid_argument(path + ": trace_file: cannot open '" +
                                spec.trace_file + "'");
  }
  return spec;
}

}  // namespace

std::span<const Flag> flag_table() { return kFlags; }

Options parse_args(const std::vector<std::string>& args) {
  ParseState s;
  // Section lines follow the argument positions, so every document line
  // maps back to the flags behind it. [experiment] keeps line 0: its
  // whole-spec diagnostics belong to no single flag.
  s.next_section_line = args.size() + 1;
  toml::Table& experiment = s.doc.root.children["experiment"];
  experiment.defined = true;
  experiment.values["name"] = string_value("cli", 0);

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::uint64_t line = i + 1;
    std::string name = args[i] == "-h" ? "--help" : args[i];
    std::optional<std::string> attached;
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      attached = name.substr(eq + 1);
      name.resize(eq);
    }
    const Flag* row = find_flag(name);
    if (!row || (attached && row->value != FlagValue::kPeriod)) {
      throw std::invalid_argument("unknown flag '" + args[i] +
                                  "' (see --help)");
    }
    std::string arg;
    if (row->value == FlagValue::kPeriod) {
      arg = attached.value_or(kDefaultProgressMs);
    } else if (row->value != FlagValue::kNone) {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(name + " requires a value");
      }
      arg = args[++i];
      if (arg.empty() && row->value != FlagValue::kCount &&
          row->value != FlagValue::kDecimal) {
        throw std::invalid_argument(name + " requires a non-empty value");
      }
    }
    s.given.insert(name);
    if (row->key) {
      s.flags_at[line] = {name};
      s.defines_experiment(name);
      lower(s, *row, arg, line);
    } else {
      row->set(s, name, arg);
      if (s.options.help) return s.options;
    }
  }

  if (!s.config.empty() && !s.experiment_flag.empty()) {
    throw std::invalid_argument(
        "--config cannot be combined with " + s.experiment_flag +
        " (the config file defines the whole experiment)");
  }
  // The document defaults `policy` to fcfs; on the command line a queue
  // knob without --schedule is a forgotten flag, not a request for fcfs.
  for (const Flag& row : kFlags) {
    if (row.needs && s.given.count(row.name) && !s.given.count(row.needs)) {
      throw std::invalid_argument(std::string(row.name) + " requires " +
                                  row.needs);
    }
  }
  Options& opt = s.options;
  opt.spec = s.config.empty() ? read_flags(s) : read_config(s.config);

  if (!opt.dump_trace.empty()) {
    if (!opt.dump_config.empty()) {
      throw std::invalid_argument(
          "--dump-trace and --dump-config cannot be combined");
    }
    if (!opt.spec.tenants.empty()) {
      throw std::invalid_argument(
          "--tenants and --dump-trace cannot be combined (a trace file holds "
          "one request stream)");
    }
    if (!opt.spec.trace_file.empty()) {
      throw std::invalid_argument(
          "--trace-file and --dump-trace cannot be combined (one replays a "
          "trace, the other writes one)");
    }
    if (opt.spec.workloads.size() != 1) {
      throw std::invalid_argument(
          "--dump-trace requires a single --workload (a trace file holds one "
          "request stream, not a matrix)");
    }
  }
  return std::move(opt);
}

std::string usage() {
  constexpr std::size_t kIndent = 25;
  constexpr std::size_t kWidth = 79;
  std::ostringstream os;
  // Word-wraps `text` into the help column.
  const auto paragraph = [&](const std::string& text) {
    std::size_t column = kIndent;
    std::istringstream words(text);
    std::string word;
    bool first = true;
    while (words >> word) {
      if (!first && column + 1 + word.size() > kWidth) {
        os << "\n" << std::string(kIndent, ' ');
        column = kIndent;
        first = true;
      }
      os << (first ? "" : " ") << word;
      column += (first ? 0 : 1) + word.size();
      first = false;
    }
    os << "\n";
  };
  os << "comet_sim — trace-driven sweep driver for the COMET memory study\n"
     << "\n"
     << "Usage: comet_sim [options]\n"
     << "A flag with a config key is an alias of that key of a --config\n"
     << "document; the flags are read as such a document.\n";
  for (const Flag& row : kFlags) {
    std::string head = std::string("  ") + row.name;
    if (*row.metavar) {
      head += (row.value == FlagValue::kPeriod ? "" : " ");
      head += row.metavar;
    }
    os << head << std::string(kIndent - std::min(head.size(), kIndent - 1),
                              ' ');
    std::string help = row.help;
    if (row.name == std::string_view("--device")) {
      help += "; one of: " + device_choices();
    } else if (row.name == std::string_view("--workload")) {
      help += "; one of: " + workload_choices();
    }
    paragraph(help);
    if (row.key) {
      const std::string_view key = row.key;
      const std::size_t dot = key.find('.');
      os << std::string(kIndent, ' ');
      paragraph(row.value == FlagValue::kTenants
                    ? "config: one [tenant.NAME] section per stream"
                    : "config: [" + std::string(key.substr(0, dot)) + "] " +
                          std::string(key.substr(dot + 1)));
    }
  }
  return os.str();
}

}  // namespace comet::driver
