// Driver subsystem tests: CLI parsing (including rejection of unknown
// devices/workloads), registry expansion, sweep determinism across thread
// counts, and the JSON emission shape.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/fields.hpp"
#include "config/toml.hpp"
#include "driver/options.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/sweep.hpp"
#include "memsim/trace.hpp"
#include "sched/controller.hpp"
#include "sim_stats_equal.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using comet::driver::build_matrix;
using comet::driver::Options;
using comet::driver::parse_args;
using comet::driver::resolve_device_specs;
using comet::driver::run_sweep;
using comet::test_support::expect_identical;

TEST(OptionsTest, DefaultsAreAllDevicesAllWorkloads) {
  const Options opt = parse_args({});
  EXPECT_EQ(opt.spec.devices, resolve_device_specs("all"));
  EXPECT_EQ(opt.spec.workloads, comet::memsim::spec_like_profiles());
  EXPECT_EQ(opt.spec.channels, std::vector<int>{0});
  EXPECT_FALSE(opt.help);
}

TEST(OptionsTest, ParsesEveryFlag) {
  const Options opt =
      parse_args({"--device", "comet", "--workload", "lbm_like",
                  "--channels", "4", "--requests", "1000", "--threads", "3",
                  "--run-threads", "2", "--seed", "7", "--line-bytes", "64",
                  "--json", "out.json", "--csv"});
  ASSERT_EQ(opt.spec.devices.size(), 1u);
  EXPECT_EQ(opt.spec.devices[0], comet::driver::make_device_spec("comet"));
  ASSERT_EQ(opt.spec.workloads.size(), 1u);
  EXPECT_EQ(opt.spec.workloads[0].name, "lbm_like");
  EXPECT_EQ(opt.spec.channels, std::vector<int>{4});
  EXPECT_EQ(opt.spec.requests, std::vector<std::uint64_t>{1000});
  EXPECT_EQ(opt.threads, 3);
  EXPECT_EQ(opt.spec.run_threads, std::vector<int>{2});
  EXPECT_EQ(opt.spec.seeds, std::vector<std::uint64_t>{7});
  EXPECT_EQ(opt.spec.line_bytes, 64u);
  EXPECT_EQ(opt.json_path, "out.json");
  EXPECT_TRUE(opt.csv);
}

TEST(OptionsTest, RejectsUnknownDevice) {
  EXPECT_THROW(parse_args({"--device", "sram"}), std::invalid_argument);
}

TEST(OptionsTest, RejectsUnknownWorkload) {
  EXPECT_THROW(parse_args({"--workload", "no_such_profile"}),
               std::invalid_argument);
}

TEST(OptionsTest, RejectsUnknownFlagAndBadValues) {
  EXPECT_THROW(parse_args({"--bogus"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests", "0"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests", "12abc"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--channels", "-2"}), std::invalid_argument);
  // stoull-style leniency must not leak through: no signs, no whitespace.
  EXPECT_THROW(parse_args({"--requests", " -1"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests", "+5"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests", " 5"}), std::invalid_argument);
  // Values that would wrap when narrowed must be rejected, not truncated.
  EXPECT_THROW(parse_args({"--channels", "4294967297"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--threads", "4294967296"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--line-bytes", "4294967424"}),
               std::invalid_argument);
}

TEST(OptionsTest, HelpShortCircuits) {
  const Options opt = parse_args({"--help", "--device", "sram"});
  EXPECT_TRUE(opt.help);
}

TEST(OptionsTest, ListFlagsParse) {
  EXPECT_TRUE(parse_args({"--list-devices"}).list_devices);
  EXPECT_TRUE(parse_args({"--list-workloads"}).list_workloads);
  const Options opt = parse_args({});
  EXPECT_FALSE(opt.list_devices);
  EXPECT_FALSE(opt.list_workloads);
}

namespace {

/// Writes a small generated trace to a temp file, deleted on scope exit.
class TempTraceFile {
 public:
  TempTraceFile() {
    const auto trace = comet::memsim::TraceGenerator(
                           comet::memsim::profile_by_name("gcc_like"), 13)
                           .generate(400, 64);
    std::ofstream out(path_);
    comet::memsim::write_trace(out, trace, comet::memsim::TraceConfig{});
  }
  ~TempTraceFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  // Pid-qualified so parallel ctest invocations of this binary never
  // collide on the shared working directory.
  std::string path_ =
      "test_driver_tmp_" + std::to_string(::getpid()) + ".trace";
};

}  // namespace

TEST(OptionsTest, TraceFileMustExistAtParseTime) {
  // main() maps parse failures to exit 2: a bad path dies before any
  // simulation runs.
  EXPECT_THROW(parse_args({"--trace-file", "/no/such/file.trace"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--trace-file", ""}), std::invalid_argument);
  // A directory opens but cannot be read; the parse-time probe must
  // catch it, not let it replay as a silently empty trace.
  EXPECT_THROW(parse_args({"--trace-file", "/tmp"}), std::invalid_argument);
  const TempTraceFile file;
  const Options opt = parse_args({"--trace-file", file.path()});
  EXPECT_EQ(opt.spec.trace_file, file.path());
}

TEST(OptionsTest, CpuGhzParsesAndRejectsBadValues) {
  const TempTraceFile file;
  const Options opt =
      parse_args({"--trace-file", file.path(), "--cpu-ghz", "3.5"});
  EXPECT_DOUBLE_EQ(opt.spec.cpu_ghz, 3.5);
  EXPECT_THROW(parse_args({"--cpu-ghz", "0"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--cpu-ghz", "-2"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--cpu-ghz", "2.0.0"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--cpu-ghz", "fast"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--cpu-ghz", "1e3"}), std::invalid_argument);
}

TEST(OptionsTest, DumpTraceNeedsASingleWorkload) {
  EXPECT_THROW(parse_args({"--dump-trace", "out.trace"}),
               std::invalid_argument);
  const Options opt =
      parse_args({"--dump-trace", "out.trace", "--workload", "lbm_like"});
  EXPECT_EQ(opt.dump_trace, "out.trace");
}

TEST(OptionsTest, DumpTraceAndTraceFileConflict) {
  const TempTraceFile file;
  EXPECT_THROW(parse_args({"--trace-file", file.path(), "--dump-trace",
                           "out.trace", "--workload", "lbm_like"}),
               std::invalid_argument);
}

namespace {

/// Writes TOML content to a pid-qualified temp file, deleted on exit.
class TempTomlFile {
 public:
  explicit TempTomlFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
  ~TempTomlFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_ =
      "test_driver_tmp_" + std::to_string(::getpid()) + "_" +
      std::to_string(counter_++) + ".toml";
  static int counter_;
};

int TempTomlFile::counter_ = 0;

}  // namespace

TEST(OptionsTest, ConfigOwnsTheMatrix) {
  const TempTomlFile file(
      "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"gcc_like\"]\n");
  const Options opt = parse_args({"--config", file.path()});
  EXPECT_EQ(opt.spec.source, file.path());
  // Non-matrix flags still compose with --config...
  EXPECT_NO_THROW(parse_args(
      {"--config", file.path(), "--threads", "2", "--json", "o.json"}));
  // ...but every matrix-defining flag conflicts.
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--device", "comet"},
        {"--workload", "gcc_like"},
        {"--requests", "10"},
        {"--seed", "1"},
        {"--channels", "4"},
        {"--run-threads", "2"},
        {"--cache-mb", "32"}}) {
    std::vector<std::string> args{"--config", file.path()};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_THROW(parse_args(args), std::invalid_argument) << extra[0];
  }
}

TEST(OptionsTest, ConfigFileValidatedAtParseTime) {
  EXPECT_THROW(parse_args({"--config", "/no/such/file.toml"}),
               std::runtime_error);
  const TempTomlFile typo(
      "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"gcc_like\"]\n"
      "requets = 5\n");
  try {
    parse_args({"--config", typo.path()});
    FAIL() << "expected a schema error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(typo.path() + ":4"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("requets"), std::string::npos)
        << e.what();
  }
  // Unknown tokens, profile names and a missing trace_file inside the
  // document are parse-time (exit 2) failures too, naming the file.
  const TempTomlFile bad_token(
      "[experiment]\ndevices = [\"optane\"]\nworkloads = [\"gcc_like\"]\n");
  try {
    parse_args({"--config", bad_token.path()});
    FAIL() << "expected an unknown-device error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(bad_token.path()),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("unknown device 'optane'"),
              std::string::npos)
        << e.what();
  }
  const TempTomlFile bad_workload(
      "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"nope_like\"]\n");
  EXPECT_THROW(parse_args({"--config", bad_workload.path()}),
               std::invalid_argument);
  const TempTomlFile bad_trace(
      "[experiment]\ndevices = [\"comet\"]\n"
      "trace_file = \"/no/such.trace\"\n");
  EXPECT_THROW(parse_args({"--config", bad_trace.path()}),
               std::invalid_argument);
}

TEST(OptionsTest, DeviceFilesAddDevicesToTheMatrix) {
  const TempTomlFile custom(
      "[device]\nname = \"comet-2ch\"\nbase = \"comet\"\n"
      "[device.timing]\nchannels = 2\n");
  // Without an explicit --device, the file replaces the default `all`.
  const auto solo = build_matrix(
      parse_args({"--device-file", custom.path(), "--workload", "gcc_like"})
          .spec);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo[0].device.name, "comet-2ch");
  EXPECT_EQ(solo[0].device.channels(), 2);
  // With one, tokens come first and the file's devices follow.
  const auto both = build_matrix(
      parse_args({"--device", "epcm", "--device-file", custom.path(),
                  "--workload", "gcc_like"})
          .spec);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[1].device.name, "comet-2ch");
  // A bad file fails at parse time.
  EXPECT_THROW(parse_args({"--device-file", "/no/such/device.toml"}),
               std::runtime_error);
}

TEST(OptionsTest, CacheOverridesReachDeviceFileHybrids) {
  // --cache-* must not be silently ignored for a file-defined hybrid:
  // the flags apply to every hybrid in the matrix, token- or
  // file-sourced, through the same apply_hybrid_overrides path.
  const TempTomlFile hybrid_file(
      "[device]\nname = \"hc\"\nbase = \"comet\"\n"
      "[device.cache]\ncapacity_mb = 32\n");
  const auto jobs = build_matrix(
      parse_args({"--device-file", hybrid_file.path(), "--workload",
                  "gcc_like", "--cache-mb", "64", "--cache-policy",
                  "write-no-allocate"})
          .spec);
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_TRUE(jobs[0].device.is_hybrid());
  EXPECT_EQ(jobs[0].device.tiered->cache.capacity_bytes, 64ull << 20);
  EXPECT_FALSE(jobs[0].device.tiered->cache.write_allocate);
  // The DRAM tier resized with the cache.
  EXPECT_EQ(jobs[0].device.tiered->dram.capacity_bytes, 64ull << 20);
}

TEST(OptionsTest, DumpConfigConflictsWithDumpTrace) {
  EXPECT_THROW(parse_args({"--dump-config", "a.toml", "--dump-trace",
                           "b.nvt", "--workload", "gcc_like"}),
               std::invalid_argument);
  const Options opt = parse_args({"--dump-config", "a.toml"});
  EXPECT_EQ(opt.dump_config, "a.toml");
}

TEST(SweepTest, CliOptionsLiftIntoExperimentSpec) {
  const auto spec =
      parse_args({"--device", "comet", "--workload", "lbm_like",
                  "--requests", "123", "--seed", "9", "--channels", "4"})
          .spec;
  EXPECT_EQ(spec.name, "cli");
  EXPECT_TRUE(spec.device_tokens.empty());  // Resolved inline.
  ASSERT_EQ(spec.devices.size(), 1u);
  ASSERT_EQ(spec.workloads.size(), 1u);
  EXPECT_EQ(spec.workloads[0].name, "lbm_like");
  EXPECT_EQ(spec.requests, std::vector<std::uint64_t>{123});
  EXPECT_EQ(spec.seeds, std::vector<std::uint64_t>{9});
  EXPECT_EQ(spec.channels, std::vector<int>{4});
  EXPECT_TRUE(spec.source.empty());
}

TEST(RegistryTest, EmptyDeviceSpecFailsLoudly) {
  // The documented footgun: a default-constructed spec has neither
  // optional engaged; make_engine/set_channels must throw a clear
  // std::logic_error instead of dereferencing an empty optional.
  comet::driver::DeviceSpec spec;
  EXPECT_THROW((void)spec.make_engine(), std::logic_error);
  EXPECT_THROW(spec.set_channels(4), std::logic_error);
}

TEST(RegistryTest, MakeEngineCoversEveryToken) {
  for (const auto& token : comet::driver::known_devices()) {
    const auto engine = comet::driver::make_device_spec(token).make_engine();
    EXPECT_NE(engine, nullptr) << token;
  }
  for (const auto& token : comet::driver::known_hybrid_devices()) {
    const auto engine = comet::driver::make_device_spec(token).make_engine();
    const auto stats = engine->run(std::vector<comet::memsim::Request>{});
    EXPECT_TRUE(stats.is_hybrid()) << token;
  }
}

TEST(SweepTest, TraceFileModeBuildsOneJobPerDevice) {
  const TempTraceFile file;
  const Options opt = parse_args({"--trace-file", file.path()});
  const auto jobs = build_matrix(opt.spec);
  EXPECT_EQ(jobs.size(), 7u);  // devices x one trace pseudo-workload
  for (const auto& job : jobs) {
    EXPECT_EQ(job.trace_path, file.path());
    EXPECT_EQ(job.profile.name, file.path());  // basename == path here
    EXPECT_DOUBLE_EQ(job.cpu_ghz, 2.0);
  }
}

TEST(SweepTest, TraceFileReplayThreadedMatchesSerial) {
  const TempTraceFile file;
  Options opt = parse_args({"--trace-file", file.path(), "--device", "all"});
  auto jobs = build_matrix(opt.spec);
  // Mix a hybrid design point into the matrix.
  {
    Options hybrid_opt =
        parse_args({"--trace-file", file.path(), "--device", "hybrid-comet"});
    for (auto& job : build_matrix(hybrid_opt.spec)) {
      jobs.push_back(std::move(job));
    }
  }
  const auto serial = run_sweep(jobs, 1);
  const auto threaded = run_sweep(jobs, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].reads, threaded[i].reads) << i;
    EXPECT_EQ(serial[i].span_ps, threaded[i].span_ps) << i;
    EXPECT_EQ(serial[i].dynamic_energy_pj, threaded[i].dynamic_energy_pj)
        << i;
    EXPECT_EQ(serial[i].cache_hits, threaded[i].cache_hits) << i;
    // Every device replayed the same 400-request demand stream.
    EXPECT_EQ(serial[i].reads + serial[i].writes, 400u) << i;
  }
}

TEST(ReportTest, JsonRecordsTraceFile) {
  const TempTraceFile file;
  Options opt = parse_args({"--trace-file", file.path(), "--device", "comet"});
  const auto jobs = build_matrix(opt.spec);
  const auto results = run_sweep(jobs, 1);
  std::ostringstream os;
  comet::driver::write_json(os, jobs, results);
  EXPECT_NE(os.str().find("\"trace_file\": \"" + file.path() + "\""),
            std::string::npos)
      << os.str();
}

TEST(ReportTest, JsonEscapesControlCharactersInStrings) {
  // A path or label with a tab or other control byte must still yield a
  // valid JSON document: escaped as \u00XX, never written raw.
  Options opt = parse_args({"--device", "comet", "--workload", "gcc_like",
                            "--requests", "50"});
  auto jobs = build_matrix(opt.spec);
  const auto results = run_sweep(jobs, 1);
  jobs[0].trace_path = "t\tab\x01.trace";
  jobs[0].experiment = "quote\"back\\slash\nline";
  std::ostringstream os;
  comet::driver::write_json(os, jobs, results);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"trace_file\": \"t\\u0009ab\\u0001.trace\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"experiment\": \"quote\\\"back\\\\slash\\u000aline\""),
            std::string::npos)
      << json;
  for (const char c : json) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
    }
  }
}

TEST(RegistryTest, HybridTokensAreDistinctFromFlatOnes) {
  for (const auto& token : comet::driver::known_hybrid_devices()) {
    for (const auto& flat : comet::driver::known_devices()) {
      EXPECT_NE(token, flat);
    }
  }
}

TEST(RegistryTest, AllExpandsToSevenUniqueModels) {
  // The flat-only resolve_devices() duplicate is retired: the single
  // expansion path serves flat and hybrid tokens alike.
  const auto specs = resolve_device_specs("all");
  EXPECT_EQ(specs.size(), 7u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_FALSE(specs[i].is_hybrid()) << specs[i].name;
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].name, specs[j].name);
    }
  }
}

TEST(RegistryTest, HbmAliasesTheStackedDdr4Part) {
  EXPECT_EQ(comet::driver::make_device("hbm").name,
            comet::driver::make_device("ddr4_3d").name);
}

TEST(RegistryTest, UnknownTokenThrows) {
  EXPECT_THROW(resolve_device_specs("optane"), std::invalid_argument);
}

TEST(SweepTest, MatrixIsDevicesTimesWorkloads) {
  const Options opt = parse_args({});
  const auto jobs = build_matrix(opt.spec);
  EXPECT_EQ(jobs.size(), 7u * 8u);
}

TEST(SweepTest, ChannelOverrideAppliesToEveryDevice) {
  Options opt = parse_args({"--device", "comet", "--channels", "2"});
  const auto jobs = build_matrix(opt.spec);
  ASSERT_FALSE(jobs.empty());
  for (const auto& job : jobs) EXPECT_EQ(job.device.channels(), 2);
}

// Acceptance criterion: the threaded sweep must be bit-identical to the
// serial path for a fixed seed. Compare every stats field exactly.
TEST(SweepTest, ThreadedMatchesSerialBitExactly) {
  Options opt = parse_args({"--requests", "2000"});
  const auto jobs = build_matrix(opt.spec);
  const auto serial = run_sweep(jobs, 1);
  const auto threaded = run_sweep(jobs, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], threaded[i], std::to_string(i));
  }
}

TEST(SweepTest, RepeatedRunsAreDeterministic) {
  Options opt = parse_args({"--device", "comet", "--workload", "all",
                            "--requests", "1500"});
  const auto jobs = build_matrix(opt.spec);
  const auto first = run_sweep(jobs, 2);
  const auto second = run_sweep(jobs, 3);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_identical(first[i], second[i], std::to_string(i));
  }
}

TEST(ReportTest, JsonContainsOneRecordPerRunWithRequiredFields) {
  Options opt = parse_args({"--device", "comet", "--requests", "500"});
  const auto jobs = build_matrix(opt.spec);
  const auto results = run_sweep(jobs, 1);
  std::ostringstream os;
  comet::driver::write_json(os, jobs, results);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\": \"comet_sim_sweep\""), std::string::npos);
  for (const char* field :
       {"\"device\"", "\"workload\"", "\"avg_read_latency_ns\"",
        "\"bandwidth_gbps\"", "\"energy_pj_per_bit\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  std::size_t records = 0;
  for (std::size_t pos = json.find("\"device\""); pos != std::string::npos;
       pos = json.find("\"device\"", pos + 1)) {
    ++records;
  }
  EXPECT_EQ(records, jobs.size());
}

TEST(ReportTest, TableReportCoversEveryDevice) {
  Options opt = parse_args({"--workload", "lbm_like", "--requests", "500"});
  const auto jobs = build_matrix(opt.spec);
  const auto results = run_sweep(jobs, 1);
  std::ostringstream os;
  comet::driver::print_report(os, jobs, results, /*csv=*/false);
  for (const auto& job : jobs) {
    EXPECT_NE(os.str().find(job.device.name), std::string::npos)
        << job.device.name;
  }
}

// ----------------------------------------------------------- telemetry

TEST(OptionsTest, TelemetryFlagsParseAndConvert) {
  const Options opt = parse_args(
      {"--trace-out", "t.json", "--trace-limit", "500", "--metrics-interval",
       "1000000", "--metrics-csv", "t.csv"});
  const auto& spec = opt.spec.telemetry;
  EXPECT_TRUE(spec.tracing());
  EXPECT_EQ(spec.trace_path, "t.json");
  EXPECT_EQ(spec.trace_limit, 500u);
  EXPECT_TRUE(spec.sampling());
  EXPECT_EQ(spec.metrics_interval_ps, 1'000'000'000u);  // ns -> ps.
  EXPECT_EQ(spec.metrics_csv, "t.csv");

  // Untraced default: a disabled spec, so jobs carry no collector.
  const auto off = parse_args({}).spec.telemetry;
  EXPECT_FALSE(off.enabled());
}

TEST(OptionsTest, TelemetryFlagDependenciesRejectedAtParseTime) {
  // --trace-limit without --trace-out: no event budget to cap.
  EXPECT_THROW(parse_args({"--trace-limit", "100"}), std::invalid_argument);
  // --metrics-csv without --metrics-interval: no timeline to write.
  EXPECT_THROW(parse_args({"--metrics-csv", "t.csv"}), std::invalid_argument);
  // Degenerate values.
  EXPECT_THROW(parse_args({"--trace-out", ""}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--metrics-interval", "0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--metrics-interval", "abc"}),
               std::invalid_argument);
}

TEST(OptionsTest, TelemetryFlagsConflictWithConfig) {
  const TempTomlFile file(
      "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"gcc_like\"]\n");
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--trace-out", "t.json"},
        {"--trace-out", "t.json", "--trace-limit", "5"},
        {"--metrics-interval", "1000"},
        {"--metrics-interval", "1000", "--metrics-csv", "t.csv"}}) {
    std::vector<std::string> args{"--config", file.path()};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_THROW(parse_args(args), std::invalid_argument) << extra[0];
  }
}

TEST(OptionsTest, ListPoliciesParsesAndRegistryIsComplete) {
  EXPECT_TRUE(parse_args({"--list-policies"}).list_policies);
  EXPECT_FALSE(parse_args({}).list_policies);
  const auto& policies = comet::sched::known_policies();
  ASSERT_EQ(policies.size(), 5u);
  for (const auto& info : policies) {
    // The printed token must round-trip through the scheduler's own
    // name mapping — the same token --schedule accepts.
    EXPECT_EQ(comet::sched::policy_name(info.policy), info.name);
    EXPECT_NE(std::string(info.summary), "");
    // Each policy-specific knob is a [controller] document key.
    for (const std::string knob : info.knobs) {
      EXPECT_TRUE(std::ranges::any_of(
          comet::config::Schema<comet::sched::ControllerConfig>::fields,
          [&](const auto& field) { return knob == field.key; }))
          << info.name << ": " << knob;
    }
  }
}

TEST(SweepTest, TelemetrySpecRidesIntoEveryJob) {
  const Options opt = parse_args(
      {"--device", "comet", "--workload", "all", "--requests", "200",
       "--trace-out", "t.json", "--metrics-interval", "1000000"});
  const auto jobs = build_matrix(opt.spec);
  ASSERT_FALSE(jobs.empty());
  for (const auto& job : jobs) {
    EXPECT_EQ(job.telemetry.trace_path, "t.json");
    EXPECT_EQ(job.telemetry.metrics_interval_ps, 1'000'000'000u);
    EXPECT_TRUE(job.telemetry.enabled());
  }
}

TEST(SweepTest, RunSweepBuildsOneCollectorPerEnabledJob) {
  Options opt = parse_args({"--device", "comet", "--workload", "gcc_like",
                            "--requests", "300", "--metrics-interval",
                            "1000000"});
  const auto jobs = build_matrix(opt.spec);
  std::vector<std::unique_ptr<comet::telemetry::Collector>> collectors;
  const auto results = run_sweep(jobs, 1, &collectors);
  ASSERT_EQ(collectors.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_NE(collectors[i], nullptr);
    const auto timeline = collectors[i]->timeline();
    ASSERT_FALSE(timeline.empty());
    std::uint64_t total = 0;
    for (const auto& point : timeline) total += point.reads + point.writes;
    EXPECT_EQ(total, results[i].reads + results[i].writes);
  }

  // Disabled telemetry: the slots stay null and nothing is recorded.
  Options plain = parse_args({"--device", "comet", "--workload", "gcc_like",
                              "--requests", "300"});
  const auto plain_jobs = build_matrix(plain.spec);
  run_sweep(plain_jobs, 1, &collectors);
  ASSERT_EQ(collectors.size(), plain_jobs.size());
  for (const auto& collector : collectors) EXPECT_EQ(collector, nullptr);
}

TEST(ReportTest, JsonCarriesTelemetryProvenanceAndTimeline) {
  Options opt = parse_args({"--device", "comet", "--workload", "gcc_like",
                            "--requests", "300", "--trace-out", "t.json",
                            "--metrics-interval", "1000000"});
  const auto jobs = build_matrix(opt.spec);
  std::vector<std::unique_ptr<comet::telemetry::Collector>> collectors;
  const auto results = run_sweep(jobs, 1, &collectors);
  std::ostringstream os;
  comet::driver::write_json(os, jobs, results, &collectors);
  const std::string json = os.str();
  for (const char* field :
       {"\"trace_out\": \"t.json\"", "\"metrics_interval_ns\": 1000000",
        "\"metrics_csv\": null", "\"telemetry\": {", "\"timeline\": [",
        "\"bank_requests\"", "\"channel_requests\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }

  // Untraced: every telemetry field is the literal null, so a jq del()
  // of the telemetry keys diffs traced vs untraced reports cleanly.
  Options off = parse_args({"--device", "comet", "--workload", "gcc_like",
                            "--requests", "300"});
  const auto plain_jobs = build_matrix(off.spec);
  std::ostringstream plain;
  comet::driver::write_json(plain, plain_jobs, results);
  for (const char* field :
       {"\"trace_out\": null", "\"trace_limit\": null",
        "\"metrics_interval_ns\": null", "\"telemetry\": null",
        "\"timeline\": null"}) {
    EXPECT_NE(plain.str().find(field), std::string::npos) << field;
  }
}

TEST(OptionsTest, TenantListParsesAndSortsByName) {
  const Options opt = parse_args(
      {"--device", "comet", "--tenants",
       "web=gcc_like,batch=mcf_like:40:0.5", "--tenant-mapping",
       "interleave"});
  const auto& tenants = opt.spec.tenants;
  ASSERT_EQ(tenants.size(), 2u);
  // Name order, not flag order: tenant ids and seeds must not depend
  // on how the user happened to type the list.
  EXPECT_EQ(tenants[0].name, "batch");
  EXPECT_EQ(tenants[0].profile.name, "mcf_like");
  EXPECT_DOUBLE_EQ(tenants[0].interarrival_ns, 40.0);
  EXPECT_DOUBLE_EQ(tenants[0].burstiness, 0.5);
  EXPECT_EQ(tenants[1].name, "web");
  EXPECT_EQ(tenants[1].profile.name, "gcc_like");
  EXPECT_DOUBLE_EQ(tenants[1].interarrival_ns, 0.0);
  EXPECT_EQ(opt.spec.tenant_mapping,
            comet::config::TenantMapping::kInterleave);
}

TEST(OptionsTest, TenantListDiagnostics) {
  // Malformed entries die at parse time (main() maps this to exit 2).
  EXPECT_THROW(parse_args({"--tenants", ""}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "webgcc_like"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web="}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "=gcc_like"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=no_such_profile"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like,web=mcf_like"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like:abc"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like:40:1.5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "a b=gcc_like"}),
               std::invalid_argument);
  // A trace tenant's file must be readable at parse time.
  EXPECT_THROW(parse_args({"--tenants", "prod=@/no/such.nvt"}),
               std::invalid_argument);
}

TEST(OptionsTest, DecimalValuesNeedADigit) {
  // --cpu-ghz and the --tenants decimal fields share one grammar: a lone
  // '.' is not a number anywhere.
  EXPECT_THROW(parse_args({"--cpu-ghz", "."}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "a=gcc_like:.,b=lbm_like"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "a=gcc_like:40:."}),
               std::invalid_argument);
  const auto tenants =
      parse_args({"--tenants", "a=gcc_like:.5:0."}).spec.tenants;
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_DOUBLE_EQ(tenants[0].interarrival_ns, 0.5);
  EXPECT_DOUBLE_EQ(tenants[0].burstiness, 0.0);
}

TEST(SweepTest, CpuGhzClocksTraceTenants) {
  // --cpu-ghz converts a trace tenant's cycle stamps into time exactly
  // as it does for a run-level --trace-file.
  const TempTraceFile file;
  const auto span_at = [&](const std::string& ghz) {
    const auto jobs = build_matrix(
        parse_args({"--device", "comet", "--tenants",
                    "a=@" + file.path() + ",b=lbm_like", "--requests", "400",
                    "--cpu-ghz", ghz})
            .spec);
    EXPECT_EQ(jobs.at(0).cpu_ghz, std::stod(ghz));
    return comet::driver::run_job(jobs.at(0)).span_ps;
  };
  EXPECT_NE(span_at("2.0"), span_at("4.0"));
}

TEST(OptionsTest, TenantFlagDependenciesRejectedAtParseTime) {
  EXPECT_THROW(parse_args({"--tenant-mapping", "interleave"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like", "--tenant-mapping",
                           "striped"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_args({"--tenants", "web=gcc_like", "--workload", "gcc_like"}),
      std::invalid_argument);
  EXPECT_THROW(
      parse_args({"--tenants", "web=gcc_like", "--dump-trace", "x.nvt"}),
      std::invalid_argument);
  const TempTraceFile file;
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like", "--trace-file",
                           file.path()}),
               std::invalid_argument);
}

TEST(OptionsTest, FairnessKnobsDemandTheirPolicy) {
  // The knobs only mean something under their policy; anywhere else
  // they would silently gate nothing.
  EXPECT_THROW(parse_args({"--tenant-tokens", "32"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--schedule", "frfcfs", "--tenant-tokens", "32"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_args({"--schedule", "token-budget", "--starvation-cap", "8"}),
      std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenant-tokens", "0"}), std::invalid_argument);

  const auto budget =
      parse_args({"--schedule", "token-budget", "--tenant-tokens", "32"}).spec;
  ASSERT_FALSE(budget.policies.empty());
  EXPECT_EQ(budget.controller.tenant_tokens, 32);
  const auto capped =
      parse_args({"--schedule", "frfcfs-cap", "--starvation-cap", "8"}).spec;
  ASSERT_FALSE(capped.policies.empty());
  EXPECT_EQ(capped.controller.starvation_cap, 8);
}

TEST(SweepTest, TenantSpecsRideIntoEveryJob) {
  const auto jobs = build_matrix(
      parse_args({"--device", "comet", "--tenants",
                  "web=gcc_like,batch=mcf_like", "--schedule", "frfcfs-cap",
                  "--requests", "500"})
          .spec);
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_EQ(jobs[0].tenants.size(), 2u);
  EXPECT_EQ(jobs[0].tenants[0].name, "batch");
  EXPECT_EQ(jobs[0].tenants[1].name, "web");
  EXPECT_EQ(jobs[0].profile.name, "batch+web");
  EXPECT_EQ(jobs[0].tenant_mapping, comet::config::TenantMapping::kPartition);
  ASSERT_TRUE(jobs[0].controller.has_value());
  EXPECT_EQ(jobs[0].controller->policy,
            comet::sched::Policy::kFrFcfsCap);
}

// ----------------------------------------------------------- flag table

/// The keys a section's reader accepts: its field table plus the keys
/// the section reader handles itself.
template <typename S>
std::set<std::string> section_keys(std::set<std::string> own = {}) {
  for (const auto& field : comet::config::Schema<S>::fields) {
    own.insert(field.key);
  }
  return own;
}

TEST(FlagTable, EveryKeyIsAKeyOfItsSection) {
  namespace cf = comet::config;
  const std::map<std::string, std::set<std::string>> sections = {
      {"experiment", section_keys<cf::ExperimentSpec>()},
      {"controller",
       section_keys<comet::sched::ControllerConfig>({"policy", "run_threads"})},
      {"telemetry", section_keys<comet::telemetry::TelemetrySpec>()},
      {"profile", section_keys<comet::prof::ProfSpec>()},
      {"slo", {"assert"}},
      {"tenant", {"mapping"}},
  };
  for (const auto& row : comet::driver::flag_table()) {
    if (!row.key) {
      EXPECT_NE(row.set, nullptr) << row.name;
      continue;
    }
    const std::string key = row.key;
    const std::size_t dot = key.find('.');
    ASSERT_NE(dot, std::string::npos) << row.name;
    const auto section = sections.find(key.substr(0, dot));
    ASSERT_NE(section, sections.end()) << row.name << " -> " << key;
    if (row.value == comet::driver::FlagValue::kTenants) {
      // One [tenant.NAME] sub-section per entry; its keys are checked
      // by the one-key-document comparison below.
      EXPECT_EQ(key, "tenant.NAME");
      continue;
    }
    EXPECT_TRUE(section->second.count(key.substr(dot + 1)))
        << row.name << " -> " << key;
  }
}

TEST(FlagTable, EachKeyedFlagMatchesItsDocument) {
  const TempTraceFile trace;
  struct Case {
    std::vector<std::string> args;
    std::string document;  ///< Follows `[experiment] name = "cli"`.
  };
  const std::string comet_gcc =
      "devices = \"comet\"\nworkloads = \"gcc_like\"\n";
  const std::vector<std::string> base = {"--device", "comet", "--workload",
                                         "gcc_like"};
  const auto with = [&](std::vector<std::string> args) {
    args.insert(args.begin(), base.begin(), base.end());
    return args;
  };
  const std::vector<Case> cases = {
      {{"--device", "epcm", "--workload", "mcf_like"},
       "devices = \"epcm\"\nworkloads = \"mcf_like\"\n"},
      {with({"--channels", "4"}), comet_gcc + "channels = 4\n"},
      {with({"--requests", "500"}), comet_gcc + "requests = 500\n"},
      {with({"--seed", "7"}), comet_gcc + "seed = 7\n"},
      {with({"--line-bytes", "64"}), comet_gcc + "line_bytes = 64\n"},
      {with({"--cpu-ghz", "3.5"}), comet_gcc + "cpu_ghz = 3.5\n"},
      {{"--device", "comet", "--trace-file", trace.path()},
       "devices = \"comet\"\ntrace_file = \"" + trace.path() + "\"\n"},
      {with({"--run-threads", "2"}),
       comet_gcc + "[controller]\nrun_threads = 2\n"},
      {with({"--schedule", "frfcfs", "--read-q", "16", "--write-q", "8"}),
       comet_gcc +
           "[controller]\npolicy = \"frfcfs\"\nread_queue_depth = 16\n"
           "write_queue_depth = 8\n"},
      {with({"--schedule", "read-first", "--drain-high", "20",
             "--drain-low", "4"}),
       comet_gcc +
           "[controller]\npolicy = \"read-first\"\n"
           "drain_high_watermark = 20\ndrain_low_watermark = 4\n"},
      {with({"--schedule", "token-budget", "--tenant-tokens", "32"}),
       comet_gcc +
           "[controller]\npolicy = \"token-budget\"\ntenant_tokens = 32\n"},
      {with({"--schedule", "frfcfs-cap", "--starvation-cap", "8"}),
       comet_gcc +
           "[controller]\npolicy = \"frfcfs-cap\"\nstarvation_cap = 8\n"},
      {{"--device", "comet", "--tenants",
        "b=lbm_like:6:0.5,a=gcc_like:12,c=@" + trace.path(),
        "--tenant-mapping", "interleave"},
       "devices = \"comet\"\n[tenant]\nmapping = \"interleave\"\n"
       "[tenant.a]\nworkload = \"gcc_like\"\ninterarrival_ns = 12.0\n"
       "[tenant.b]\nworkload = \"lbm_like\"\ninterarrival_ns = 6.0\n"
       "burstiness = 0.5\n[tenant.c]\ntrace_file = \"" +
           trace.path() + "\"\n"},
      {with({"--trace-out", "t.json", "--trace-limit", "500"}),
       comet_gcc + "[telemetry]\ntrace_out = \"t.json\"\ntrace_limit = 500\n"},
      {with({"--metrics-interval", "1000", "--metrics-csv", "m.csv"}),
       comet_gcc +
           "[telemetry]\nmetrics_interval_ns = 1000\n"
           "metrics_csv = \"m.csv\"\n"},
      {with({"--profile"}), comet_gcc + "[profile]\nenabled = true\n"},
      {with({"--progress"}), comet_gcc + "[profile]\nprogress_ms = 500\n"},
      {with({"--progress=50"}), comet_gcc + "[profile]\nprogress_ms = 50\n"},
      {with({"--assert-slo", "p99_read_ns<=1e9"}),
       comet_gcc + "[slo]\nassert = \"p99_read_ns<=1e9\"\n"},
  };
  std::set<std::string> covered;
  for (const Case& c : cases) {
    std::string label;
    for (const auto& arg : c.args) {
      label += arg + " ";
      covered.insert(arg.substr(0, arg.find('=')));
    }
    const std::string text = "[experiment]\nname = \"cli\"\n" + c.document;
    try {
      const auto from_flags = parse_args(c.args).spec;
      const auto from_document = comet::driver::resolve_experiment(
          comet::config::parse_experiment(
              comet::config::toml::parse_string(text, ""),
              comet::driver::registry_resolver()));
      EXPECT_TRUE(from_flags == from_document) << label << "\n" << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": " << e.what();
    }
  }
  for (const auto& row : comet::driver::flag_table()) {
    if (row.key) {
      EXPECT_TRUE(covered.count(row.name)) << row.name;
    }
  }
}

TEST(FlagTable, ReaderDiagnosticsNameTheFlag) {
  const auto message = [](const std::vector<std::string>& args) {
    try {
      (void)parse_args(args);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message({"--requests", "0"}).rfind("--requests: ", 0), 0u)
      << message({"--requests", "0"});
  const std::string drain =
      message({"--schedule", "frfcfs", "--drain-high", "4"});
  EXPECT_EQ(
      drain.rfind("--drain-high: [controller]: 'drain_high_watermark'", 0), 0u)
      << drain;
  // Whole-section rules name every flag lowered into the section.
  const std::string depth = message(
      {"--schedule", "read-first", "--write-q", "8", "--drain-high", "50"});
  EXPECT_EQ(depth.rfind("--schedule/--write-q/--drain-high: ", 0), 0u)
      << depth;
  // A trace replay and an explicit workload are one stream too many.
  const TempTraceFile trace;
  EXPECT_NE(message({"--trace-file", trace.path(), "--workload", "gcc_like"})
                .find("a trace replay has exactly one request stream"),
            std::string::npos);
}

}  // namespace
