# End-to-end CLI checks of the SLO health gates, run under ctest.
# Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -P slo_cli_test.cmake
#
# Covers: exit codes (held -> 0, violated -> 3 after the JSON is written
# and with "SLO violation" on stderr, malformed -> 2 naming the metric),
# the record's slo.pass verdict, the [profile]/[slo] --dump-config round
# trip, and legacy SLO names gating exactly like the report keys they
# alias. JSON is read with CMake's string(JSON).

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
