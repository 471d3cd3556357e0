# End-to-end CLI checks of the SLO health gates, run under ctest.
# Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -P slo_cli_test.cmake
#
# Covers: exit codes (held -> 0, violated -> 3 after the JSON is written
# and with "SLO violation" on stderr, malformed -> 2 naming the metric),
# the record's slo.pass verdict, the [profile]/[slo] --dump-config round
# trip, legacy SLO names gating exactly like the report keys they alias,
# and the host-observability smoke: the --profile host object, null
# host/slo when unprofiled, profiled == unprofiled once those are
# removed, and the progress heartbeat of a threaded sweep going to
# stderr only. JSON is read with CMake's string(JSON).

if(NOT DEFINED COMET_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DCOMET_SIM=... and -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

set(RUN --device comet --workload gcc_like --requests 2000)

function(expect_eq label actual expected)
  if(NOT "${actual}" STREQUAL "${expected}")
    message(FATAL_ERROR "${label}: expected '${expected}', got '${actual}'")
  endif()
endfunction()

function(expect_contains label haystack needle)
  string(FIND "${haystack}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${label}: expected to find '${needle}' in:\n${haystack}")
  endif()
endfunction()

# Runs comet_sim with `slo` as --assert-slo, writing <name>.json; sets
# <name>_rc, <name>_err and <name>_json in the caller.
function(run_gated name slo)
  execute_process(
    COMMAND ${COMET_SIM} ${RUN} --assert-slo "${slo}"
            --json ${WORK_DIR}/${name}.json
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  set(${name}_rc "${rc}" PARENT_SCOPE)
  set(${name}_err "${err}" PARENT_SCOPE)
  if(EXISTS ${WORK_DIR}/${name}.json)
    file(READ ${WORK_DIR}/${name}.json json)
    set(${name}_json "${json}" PARENT_SCOPE)
  endif()
endfunction()

# --- 1. A held gate exits 0 and the record says so.
run_gated(ok "p99_read_ns<=1e9")
expect_eq("held gate exit" "${ok_rc}" 0)
string(JSON pass GET "${ok_json}" results 0 slo pass)
expect_eq("held gate slo.pass" "${pass}" ON)

# --- 2. A violated gate exits 3, names the violation on stderr and
# --- still writes the full report, marked failed.
run_gated(bad "p99_read_ns<=1")
expect_eq("violated gate exit" "${bad_rc}" 3)
expect_contains("violated gate stderr" "${bad_err}" "SLO violation")
expect_contains("violated gate stderr" "${bad_err}" "p99_read_ns<=1")
string(JSON pass GET "${bad_json}" results 0 slo pass)
expect_eq("violated gate slo.pass" "${pass}" OFF)

# --- 3. A malformed gate exits 2 at parse time, naming the metric.
file(REMOVE ${WORK_DIR}/bogus.json)
run_gated(bogus "bogus_metric<=1")
expect_eq("unknown metric exit" "${bogus_rc}" 2)
expect_contains("unknown metric stderr" "${bogus_err}"
  "bad SLO predicate 'bogus_metric<=1': unknown metric 'bogus_metric'")
run_gated(hex "p99_read_ns<=0x10")
expect_eq("hex threshold exit" "${hex_rc}" 2)
expect_contains("hex threshold stderr" "${hex_err}" "invalid threshold '0x10'")

# --- 4. [profile]/[slo] survive --dump-config and drive a config run.
execute_process(
  COMMAND ${COMET_SIM} ${RUN} --profile --assert-slo "wall_s<=3600"
          --dump-config ${WORK_DIR}/observed.toml
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_eq("dump-config exit" "${rc}" 0)
file(READ ${WORK_DIR}/observed.toml toml)
expect_contains("dumped config" "${toml}" "[profile]")
expect_contains("dumped config" "${toml}" "[slo]\nassert = \"wall_s<=3600\"")
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/observed.toml
          --json ${WORK_DIR}/observed.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_eq("config run exit" "${rc}" 0)
file(READ ${WORK_DIR}/observed.json json)
string(JSON host_type TYPE "${json}" results 0 host)
expect_eq("config run host" "${host_type}" OBJECT)
string(JSON pass GET "${json}" results 0 slo pass)
expect_eq("config run slo.pass" "${pass}" ON)

# --- 5. Legacy names and the report keys they alias: the same checks,
# --- value for value (one of them violated, one skipped).
run_gated(legacy "p99_read_ns<=1,avg_write_ns>=1,max_slowdown<=0")
run_gated(keyed
  "p99_read_latency_ns<=1,avg_write_latency_ns>=1,tenants.max_slowdown<=0")
expect_eq("legacy exit" "${legacy_rc}" 3)
expect_eq("keyed exit" "${keyed_rc}" 3)
string(JSON checks LENGTH "${legacy_json}" results 0 slo checks)
expect_eq("check count" "${checks}" 3)
math(EXPR last "${checks} - 1")
foreach(i RANGE ${last})
  foreach(field threshold value applicable pass)
    string(JSON a GET "${legacy_json}" results 0 slo checks ${i} ${field})
    string(JSON b GET "${keyed_json}" results 0 slo checks ${i} ${field})
    expect_eq("check ${i} ${field}" "${b}" "${a}")
  endforeach()
endforeach()
string(JSON value GET "${keyed_json}" results 0 slo checks 0 value)
string(JSON p99 GET "${keyed_json}" results 0 p99_read_latency_ns)
expect_eq("gated value is the report's" "${value}" "${p99}")
string(JSON applicable GET "${keyed_json}" results 0 slo checks 2 applicable)
expect_eq("single-stream tenants.max_slowdown skipped" "${applicable}" OFF)

# --- 6. --profile: the record carries a host object with stage timings;
# ---    an unprofiled run keeps null host/slo placeholders and is
# ---    identical once both are removed.
set(SMOKE --device comet --workload gcc_like --requests 5000)
execute_process(
  COMMAND ${COMET_SIM} ${SMOKE} --profile --json ${WORK_DIR}/profiled.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_eq("profiled run exit" "${rc}" 0)
execute_process(
  COMMAND ${COMET_SIM} ${SMOKE} --json ${WORK_DIR}/unprofiled.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_eq("unprofiled run exit" "${rc}" 0)
file(READ ${WORK_DIR}/profiled.json profiled)
file(READ ${WORK_DIR}/unprofiled.json unprofiled)
string(JSON wall_s GET "${profiled}" results 0 host wall_s)
if(NOT wall_s GREATER 0)
  message(FATAL_ERROR "profiled host.wall_s: expected > 0, got '${wall_s}'")
endif()
string(JSON requests GET "${profiled}" results 0 host requests)
expect_eq("profiled host.requests" "${requests}" 5000)
string(JSON stages LENGTH "${profiled}" results 0 host stages)
if(NOT stages GREATER 0)
  message(FATAL_ERROR "profiled host.stages is empty")
endif()
foreach(key host slo)
  string(JSON type TYPE "${unprofiled}" results 0 ${key})
  expect_eq("unprofiled ${key}" "${type}" NULL)
endforeach()
foreach(key host slo)
  string(JSON profiled REMOVE "${profiled}" results 0 ${key})
  string(JSON unprofiled REMOVE "${unprofiled}" results 0 ${key})
endforeach()
expect_eq("profiled == unprofiled without host/slo" "${profiled}"
  "${unprofiled}")

# --- 7. The live heartbeat under a threaded sweep: progress goes to
# ---    stderr only, and the report still holds every device's record.
execute_process(
  COMMAND ${COMET_SIM} --device all --workload gcc_like --requests 2000
          --threads 4 --progress=50 --json ${WORK_DIR}/progress.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_eq("progress run exit" "${rc}" 0)
file(READ ${WORK_DIR}/progress.json json)
string(JSON records LENGTH "${json}" results)
expect_eq("progress run records" "${records}" 7)
expect_contains("progress stderr" "${err}" "req")

message(STATUS "SLO CLI checks passed")
