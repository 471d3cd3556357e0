#pragma once

#include <span>
#include <string>
#include <vector>

#include "config/experiment.hpp"

/// comet_sim command-line parsing, separated from main() so the parser is
/// unit-testable (tests/test_driver.cpp) and reusable from scripts.
///
/// The command line is a config document. Every flag that defines the
/// experiment is an alias of one document key (`--read-q` is
/// `[controller] read_queue_depth`), so parse_args lowers those flags
/// into an in-memory config::toml::Document and reads it with the same
/// config::parse_experiment that `--config` files go through. The other
/// flags steer the driver: worker threads, output files, listings.
namespace comet::driver {

struct Options {
  int threads = 0;               ///< Sweep workers; 0 = hardware threads.
  std::string json_path;         ///< Non-empty: write machine-readable JSON.
  bool csv = false;              ///< Emit CSV instead of aligned tables.
  bool help = false;             ///< --help was requested.
  bool list_devices = false;     ///< Print device tokens and exit 0.
  bool list_workloads = false;   ///< Print workload names and exit 0.
  bool list_policies = false;    ///< Print scheduler policies and exit 0.
  std::string dump_config;       ///< Non-empty: write the fully resolved
                                 ///< experiment spec here and exit.
  std::string dump_trace;        ///< Non-empty: write the synthesized
                                 ///< trace of the single workload here
                                 ///< and exit (no simulation runs).

  /// The experiment the flags (or the --config file) define, with
  /// registry tokens and workload names resolved to inline definitions
  /// and the --cache-* overrides applied. `source` is the --config
  /// path, empty for flag runs.
  config::ExperimentSpec spec;
};

/// How a flag's argument is lexed. Flag values are outside input, so
/// the lexing is strict: integers are digits only (no sign, no
/// whitespace), decimals are digits with at most one '.'.
enum class FlagValue {
  kNone,     ///< A switch; a document key gets `true`.
  kCount,    ///< A non-negative integer.
  kDecimal,  ///< A non-negative plain decimal.
  kText,     ///< A non-empty string.
  kPeriod,   ///< No argument, or an `=N` suffix (--progress[=ms]).
  kTenants,  ///< `name=workload[:interarrival_ns[:burstiness]]` or
             ///< `name=@trace-file`, comma-separated.
};

/// parse_args' working state (options.cpp).
struct ParseState;

/// One row of the flag table. A row with a `key` lowers its argument
/// to that document key; a driver row applies it through `set`.
struct Flag {
  const char* name;     ///< "--read-q".
  const char* metavar;  ///< Argument placeholder in --help.
  FlagValue value;
  /// "section.key" ("tenant.NAME" for --tenants, whose entries become
  /// [tenant.NAME] sub-sections); nullptr for driver rows.
  const char* key;
  const char* help;  ///< --help text; usage() word-wraps it.
  void (*set)(ParseState& state, const std::string& flag,
              const std::string& arg) = nullptr;
  /// A flag this one refines: giving it alone is an error.
  const char* needs = nullptr;
};

/// Every comet_sim flag, in --help order.
std::span<const Flag> flag_table();

/// Parses argv-style arguments (excluding argv[0]). Throws
/// std::invalid_argument on unknown flags, missing or malformed values,
/// unknown `--device` / `--workload` names, and inconsistent flag
/// combinations; a diagnostic of the document reader names the flag
/// that set the offending value. Config and device files are parsed and
/// schema-checked here too (config::toml::ParseError, a
/// std::runtime_error, carries the file:line diagnostic).
Options parse_args(const std::vector<std::string>& args);

/// The --help text, one entry per flag_table() row.
std::string usage();

}  // namespace comet::driver
