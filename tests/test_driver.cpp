// Driver subsystem tests: CLI parsing (including rejection of unknown
// devices/workloads), registry expansion, sweep determinism across thread
// counts, and the JSON emission shape.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/options.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/sweep.hpp"
#include "memsim/trace.hpp"
#include "sched/controller.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using comet::driver::build_matrix;
using comet::driver::Options;
using comet::driver::parse_args;
using comet::driver::resolve_device_specs;
using comet::driver::run_sweep;

TEST(OptionsTest, DefaultsAreAllDevicesAllWorkloads) {
  const Options opt = parse_args({});
  EXPECT_EQ(opt.device, "all");
  EXPECT_EQ(opt.workload, "all");
  EXPECT_EQ(opt.channels, 0);
  EXPECT_FALSE(opt.help);
}

TEST(OptionsTest, ParsesEveryFlag) {
  const Options opt =
      parse_args({"--device", "comet", "--workload", "lbm_like",
                  "--channels", "4", "--requests", "1000", "--threads", "3",
                  "--run-threads", "2", "--seed", "7", "--line-bytes", "64",
                  "--json", "out.json", "--csv"});
  EXPECT_EQ(opt.device, "comet");
  EXPECT_EQ(opt.workload, "lbm_like");
  EXPECT_EQ(opt.channels, 4);
  EXPECT_EQ(opt.requests, 1000u);
  EXPECT_EQ(opt.threads, 3);
  EXPECT_EQ(opt.run_threads, 2);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_EQ(opt.line_bytes, 64u);
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
  EXPECT_EQ(opt.trace_file, file.path());
}

TEST(OptionsTest, CpuGhzParsesAndRejectsBadValues) {
  const TempTraceFile file;
  const Options opt =
      parse_args({"--trace-file", file.path(), "--cpu-ghz", "3.5"});
  EXPECT_DOUBLE_EQ(opt.cpu_ghz, 3.5);
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
  EXPECT_EQ(opt.config, file.path());
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
      parse_args({"--device-file", custom.path(), "--workload", "gcc_like"}));
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo[0].device.name, "comet-2ch");
  EXPECT_EQ(solo[0].device.channels(), 2);
  // With one, tokens come first and the file's devices follow.
  const auto both = build_matrix(
      parse_args({"--device", "epcm", "--device-file", custom.path(),
                  "--workload", "gcc_like"}));
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
  const auto jobs = build_matrix(parse_args(
      {"--device-file", hybrid_file.path(), "--workload", "gcc_like",
       "--cache-mb", "64", "--cache-policy", "write-no-allocate"}));
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
  const auto spec = comet::driver::experiment_from_options(
      parse_args({"--device", "comet", "--workload", "lbm_like",
                  "--requests", "123", "--seed", "9", "--channels", "4"}));
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
  const auto jobs = build_matrix(opt);
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
  auto jobs = build_matrix(opt);
  // Mix a hybrid design point into the matrix.
  {
    Options hybrid_opt =
        parse_args({"--trace-file", file.path(), "--device", "hybrid-comet"});
    for (auto& job : build_matrix(hybrid_opt)) jobs.push_back(std::move(job));
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
  const auto jobs = build_matrix(opt);
  const auto results = run_sweep(jobs, 1);
  std::ostringstream os;
  comet::driver::write_json(os, jobs, results);
  EXPECT_NE(os.str().find("\"trace_file\": \"" + file.path() + "\""),
            std::string::npos)
      << os.str();
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
  Options opt;
  const auto jobs = build_matrix(opt);
  EXPECT_EQ(jobs.size(), 7u * 8u);
}

TEST(SweepTest, ChannelOverrideAppliesToEveryDevice) {
  Options opt = parse_args({"--device", "comet", "--channels", "2"});
  const auto jobs = build_matrix(opt);
  ASSERT_FALSE(jobs.empty());
  for (const auto& job : jobs) EXPECT_EQ(job.device.channels(), 2);
}

// Acceptance criterion: the threaded sweep must be bit-identical to the
// serial path for a fixed seed. Compare every stats field exactly.
TEST(SweepTest, ThreadedMatchesSerialBitExactly) {
  Options opt = parse_args({"--requests", "2000"});
  const auto jobs = build_matrix(opt);
  const auto serial = run_sweep(jobs, 1);
  const auto threaded = run_sweep(jobs, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = threaded[i];
    EXPECT_EQ(a.device_name, b.device_name) << i;
    EXPECT_EQ(a.workload_name, b.workload_name) << i;
    EXPECT_EQ(a.reads, b.reads) << i;
    EXPECT_EQ(a.writes, b.writes) << i;
    EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << i;
    EXPECT_EQ(a.span_ps, b.span_ps) << i;
    EXPECT_EQ(a.read_latency_ns.mean(), b.read_latency_ns.mean()) << i;
    EXPECT_EQ(a.read_latency_ns.max(), b.read_latency_ns.max()) << i;
    EXPECT_EQ(a.write_latency_ns.mean(), b.write_latency_ns.mean()) << i;
    EXPECT_EQ(a.queue_delay_ns.mean(), b.queue_delay_ns.mean()) << i;
    EXPECT_EQ(a.dynamic_energy_pj, b.dynamic_energy_pj) << i;
    EXPECT_EQ(a.background_energy_pj, b.background_energy_pj) << i;
    EXPECT_EQ(a.total_bank_busy_ns, b.total_bank_busy_ns) << i;
  }
}

TEST(SweepTest, RepeatedRunsAreDeterministic) {
  Options opt = parse_args({"--device", "comet", "--workload", "all",
                            "--requests", "1500"});
  const auto jobs = build_matrix(opt);
  const auto first = run_sweep(jobs, 2);
  const auto second = run_sweep(jobs, 3);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].span_ps, second[i].span_ps);
    EXPECT_EQ(first[i].dynamic_energy_pj, second[i].dynamic_energy_pj);
  }
}

TEST(ReportTest, JsonContainsOneRecordPerRunWithRequiredFields) {
  Options opt = parse_args({"--device", "comet", "--requests", "500"});
  const auto jobs = build_matrix(opt);
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
  const auto jobs = build_matrix(opt);
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
  EXPECT_EQ(opt.trace_out, "t.json");
  ASSERT_TRUE(opt.trace_limit.has_value());
  EXPECT_EQ(*opt.trace_limit, 500u);
  ASSERT_TRUE(opt.metrics_interval_ns.has_value());
  EXPECT_EQ(*opt.metrics_interval_ns, 1'000'000u);
  EXPECT_EQ(opt.metrics_csv, "t.csv");

  const auto spec = comet::driver::telemetry_from_options(opt);
  EXPECT_EQ(spec.trace_path, "t.json");
  EXPECT_EQ(spec.trace_limit, 500u);
  EXPECT_EQ(spec.metrics_interval_ps, 1'000'000'000u);  // ns -> ps.
  EXPECT_EQ(spec.metrics_csv, "t.csv");

  // Untraced default: a disabled spec, so jobs carry no collector.
  const auto off = comet::driver::telemetry_from_options(parse_args({}));
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
    EXPECT_NE(std::string(info.knobs), "");
  }
}

TEST(SweepTest, TelemetrySpecRidesIntoEveryJob) {
  const Options opt = parse_args(
      {"--device", "comet", "--workload", "all", "--requests", "200",
       "--trace-out", "t.json", "--metrics-interval", "1000000"});
  const auto jobs = build_matrix(opt);
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
  const auto jobs = build_matrix(opt);
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
  const auto plain_jobs = build_matrix(plain);
  run_sweep(plain_jobs, 1, &collectors);
  ASSERT_EQ(collectors.size(), plain_jobs.size());
  for (const auto& collector : collectors) EXPECT_EQ(collector, nullptr);
}

TEST(ReportTest, JsonCarriesTelemetryProvenanceAndTimeline) {
  Options opt = parse_args({"--device", "comet", "--workload", "gcc_like",
                            "--requests", "300", "--trace-out", "t.json",
                            "--metrics-interval", "1000000"});
  const auto jobs = build_matrix(opt);
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
  const auto plain_jobs = build_matrix(off);
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
  const auto tenants = comet::driver::tenants_from_options(opt);
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
  EXPECT_EQ(opt.tenant_mapping, "interleave");
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
  const auto tenants = comet::driver::tenants_from_options(
      parse_args({"--tenants", "a=gcc_like:.5:0."}));
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_DOUBLE_EQ(tenants[0].interarrival_ns, 0.5);
  EXPECT_DOUBLE_EQ(tenants[0].burstiness, 0.0);
}

TEST(SweepTest, CpuGhzClocksTraceTenants) {
  // --cpu-ghz converts a trace tenant's cycle stamps into time exactly
  // as it does for a run-level --trace-file.
  const TempTraceFile file;
  const auto span_at = [&](const std::string& ghz) {
    const auto jobs = build_matrix(parse_args(
        {"--device", "comet", "--tenants", "a=@" + file.path() + ",b=lbm_like",
         "--requests", "400", "--cpu-ghz", ghz}));
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
  using comet::driver::scheduler_from_options;
  // The knobs only mean something under their policy; anywhere else
  // they would silently gate nothing.
  EXPECT_THROW(
      scheduler_from_options(parse_args({"--tenant-tokens", "32"})),
      std::invalid_argument);
  EXPECT_THROW(scheduler_from_options(parse_args(
                   {"--schedule", "frfcfs", "--tenant-tokens", "32"})),
               std::invalid_argument);
  EXPECT_THROW(scheduler_from_options(parse_args(
                   {"--schedule", "token-budget", "--starvation-cap", "8"})),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenant-tokens", "0"}), std::invalid_argument);

  const auto budget = scheduler_from_options(parse_args(
      {"--schedule", "token-budget", "--tenant-tokens", "32"}));
  ASSERT_TRUE(budget.has_value());
  EXPECT_EQ(budget->tenant_tokens, 32);
  const auto capped = scheduler_from_options(parse_args(
      {"--schedule", "frfcfs-cap", "--starvation-cap", "8"}));
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(capped->starvation_cap, 8);
}

TEST(SweepTest, TenantSpecsRideIntoEveryJob) {
  const auto jobs = build_matrix(parse_args(
      {"--device", "comet", "--tenants", "web=gcc_like,batch=mcf_like",
       "--schedule", "frfcfs-cap", "--requests", "500"}));
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

}  // namespace
