# End-to-end CLI checks for the on-disk trace replay path, run under
# ctest. Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -P trace_cli_test.cmake
#
# Covers: missing trace file exits 2 (bad-args class) naming the path;
# parse errors name the 1-based line number and offending text and exit
# 1; --dump-trace then --trace-file round-trips through a flat and a
# hybrid device, emitting one JSON record labelled by the trace's
# basename that serves every dumped request (the hybrid one with a
# nonzero cache hit rate); a control character in the trace file name
# is escaped in the JSON report and the Chrome trace.

if(NOT DEFINED COMET_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DCOMET_SIM=... and -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_rc label rc expected)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR "${label}: expected exit ${expected}, got ${rc}")
  endif()
endfunction()

function(expect_contains label haystack needle)
  string(FIND "${haystack}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${label}: expected to find '${needle}' in:\n${haystack}")
  endif()
endfunction()

# --- 1. Missing trace file: exit 2 before any simulation runs.
execute_process(
  COMMAND ${COMET_SIM} --device comet --trace-file ${WORK_DIR}/nope.trace
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("missing trace file" "${rc}" 2)
expect_contains("missing trace file" "${err}" "nope.trace")

# --- 2. Malformed trace: exit 1 with the line number and offending text.
file(WRITE ${WORK_DIR}/broken.trace "100 R 0x1000\nthis is not a record\n")
execute_process(
  COMMAND ${COMET_SIM} --device comet --trace-file ${WORK_DIR}/broken.trace
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("malformed trace" "${rc}" 1)
expect_contains("malformed trace" "${err}" "line 2")
expect_contains("malformed trace" "${err}" "this is not a record")

# --- 3. Non-monotonic cycles: same diagnostic style.
file(WRITE ${WORK_DIR}/unsorted.trace "100 R 0x0\n200 W 0x40\n150 R 0x80\n")
execute_process(
  COMMAND ${COMET_SIM} --device comet --trace-file ${WORK_DIR}/unsorted.trace
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("unsorted trace" "${rc}" 1)
expect_contains("unsorted trace" "${err}" "non-monotonic")
expect_contains("unsorted trace" "${err}" "line 3")

# --- 4. Dump a generated trace, replay it flat and hybrid, check JSON.
execute_process(
  COMMAND ${COMET_SIM} --dump-trace ${WORK_DIR}/gen.trace
          --workload gcc_like --requests 500
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("dump-trace" "${rc}" 0)

foreach(device comet hybrid-comet)
  execute_process(
    COMMAND ${COMET_SIM} --device ${device}
            --trace-file ${WORK_DIR}/gen.trace
            --json ${WORK_DIR}/${device}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  expect_rc("replay ${device}" "${rc}" 0)
  expect_contains("replay ${device}" "${out}" "gen.trace")
  file(READ ${WORK_DIR}/${device}.json json)
  expect_contains("json ${device}" "${json}" "\"trace_file\": ")
  expect_contains("json ${device}" "${json}" "gen.trace")
  # One record, labelled by the trace's basename, that served every
  # dumped request at a nonzero bandwidth.
  string(JSON records LENGTH "${json}" results)
  string(JSON workload GET "${json}" results 0 workload)
  string(JSON reads GET "${json}" results 0 reads)
  string(JSON writes GET "${json}" results 0 writes)
  string(JSON bandwidth GET "${json}" results 0 bandwidth_gbps)
  math(EXPR served "${reads} + ${writes}")
  if(NOT records EQUAL 1 OR NOT workload STREQUAL "gen.trace" OR
     NOT served EQUAL 500 OR NOT bandwidth GREATER 0)
    message(FATAL_ERROR "json ${device}: expected 1 record, workload "
            "gen.trace, 500 requests and bandwidth > 0; got ${records}, "
            "${workload}, ${served}, ${bandwidth}")
  endif()
endforeach()
string(JSON hybrid GET "${json}" results 0 hybrid)
string(JSON hit_rate GET "${json}" results 0 hit_rate)
if(NOT hybrid OR NOT hit_rate GREATER 0)
  message(FATAL_ERROR "json hybrid-comet: expected hybrid true and "
          "hit_rate > 0; got ${hybrid}, ${hit_rate}")
endif()

# --- 5. --dump-trace without a single workload: exit 2.
execute_process(
  COMMAND ${COMET_SIM} --dump-trace ${WORK_DIR}/bad.trace
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
expect_rc("dump-trace needs workload" "${rc}" 2)

# --- 6. A tab in the trace file name (it is also the workload label)
# --- reaches the JSON report and the Chrome trace escaped, never raw.
set(tabbed "${WORK_DIR}/t\tab.trace")
execute_process(
  COMMAND ${COMET_SIM} --dump-trace ${tabbed} --workload gcc_like
          --requests 200
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("dump-trace tabbed name" "${rc}" 0)
execute_process(
  COMMAND ${COMET_SIM} --device comet --trace-file ${tabbed}
          --json ${WORK_DIR}/tabbed.json
          --trace-out ${WORK_DIR}/tabbed_trace.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("replay tabbed name" "${rc}" 0)
foreach(out tabbed.json tabbed_trace.json)
  file(READ ${WORK_DIR}/${out} json)
  string(FIND "${json}" "\t" raw_tab)
  if(NOT raw_tab EQUAL -1)
    message(FATAL_ERROR "${out}: raw tab character in JSON output")
  endif()
  expect_contains("${out}" "${json}" "t\\u0009ab.trace")
endforeach()

message(STATUS "trace CLI tests passed")
