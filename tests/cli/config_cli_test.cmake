# End-to-end CLI checks for the declarative config path, run under
# ctest. Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -DEXAMPLES_DIR=<repo>/examples/configs -P config_cli_test.cmake
#
# Covers: --dump-config → --config round-trips to bit-identical JSON
# (modulo the config-provenance fields) for a flat and a hybrid device;
# a custom device defined only in a config file runs end-to-end with no
# registry edit; the committed example specs stay valid and every one of
# them dumps to a --dump-config fixed point; missing files and schema
# errors exit 2 with file:line diagnostics; --config rejects matrix
# flags.

if(NOT DEFINED COMET_SIM OR NOT DEFINED WORK_DIR OR NOT DEFINED EXAMPLES_DIR)
  message(FATAL_ERROR "pass -DCOMET_SIM=..., -DWORK_DIR=... and -DEXAMPLES_DIR=...")
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

# Strips the config-provenance fields so flag-run and config-run JSON
# can be compared bit-for-bit.
function(strip_provenance json out_var)
  string(REGEX REPLACE "\"experiment\": \"[^\"]*\", " "" json "${json}")
  string(REGEX REPLACE "\"config_file\": \"[^\"]*\", " "" json "${json}")
  set(${out_var} "${json}" PARENT_SCOPE)
endfunction()

# --- 1. Acceptance loop per device class: dump the resolved spec, rerun
# ---    it through --config, and require bit-identical JSON modulo
# ---    provenance.
foreach(device comet hybrid-comet)
  set(flags --device ${device} --workload gcc_like --requests 800 --seed 11)
  execute_process(
    COMMAND ${COMET_SIM} ${flags} --json ${WORK_DIR}/${device}_flags.json
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("flag run ${device}" "${rc}" 0)
  execute_process(
    COMMAND ${COMET_SIM} ${flags} --dump-config ${WORK_DIR}/${device}.toml
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  expect_rc("dump-config ${device}" "${rc}" 0)
  expect_contains("dump-config ${device}" "${out}" "wrote")
  execute_process(
    COMMAND ${COMET_SIM} --config ${WORK_DIR}/${device}.toml
            --json ${WORK_DIR}/${device}_config.json
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("config run ${device}" "${rc}" 0)

  file(READ ${WORK_DIR}/${device}_flags.json from_flags)
  file(READ ${WORK_DIR}/${device}_config.json from_config)
  expect_contains("provenance ${device}" "${from_config}" "${device}.toml")
  expect_contains("provenance ${device}" "${from_config}"
                  "\"config_file\": \"${WORK_DIR}/${device}.toml\"")
  string(REGEX MATCHALL "\"device\": " records "${from_config}")
  list(LENGTH records record_count)
  expect_rc("config run ${device} record count" "${record_count}" 1)
  strip_provenance("${from_flags}" from_flags)
  strip_provenance("${from_config}" from_config)
  if(NOT from_flags STREQUAL from_config)
    message(FATAL_ERROR "config run of ${device} diverged from the flag run:\n"
                        "${from_flags}\n--- vs ---\n${from_config}")
  endif()
endforeach()

# --- 1b. The scheduled analogue: a --schedule run dumps a [controller]
# ---     section and replays from it bit-identically (modulo
# ---     provenance), including the scheduler JSON fields.
set(sched_flags --device comet --workload gcc_like --requests 800 --seed 11
    --schedule frfcfs --read-q 16 --write-q 16)
execute_process(
  COMMAND ${COMET_SIM} ${sched_flags} --json ${WORK_DIR}/sched_flags.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("scheduled flag run" "${rc}" 0)
execute_process(
  COMMAND ${COMET_SIM} ${sched_flags} --dump-config ${WORK_DIR}/sched.toml
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("scheduled dump-config" "${rc}" 0)
file(READ ${WORK_DIR}/sched.toml sched_toml)
expect_contains("scheduled dump-config" "${sched_toml}" "[controller]")
expect_contains("scheduled dump-config" "${sched_toml}" "policy = \"frfcfs\"")
expect_contains("scheduled dump-config" "${sched_toml}" "read_queue_depth = 16")
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/sched.toml
          --json ${WORK_DIR}/sched_config.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("scheduled config run" "${rc}" 0)
file(READ ${WORK_DIR}/sched_flags.json sched_from_flags)
file(READ ${WORK_DIR}/sched_config.json sched_from_config)
expect_contains("scheduled json" "${sched_from_flags}" "\"sched\": {")
expect_contains("scheduled json" "${sched_from_flags}" "\"policy\": \"frfcfs\"")
strip_provenance("${sched_from_flags}" sched_from_flags)
strip_provenance("${sched_from_config}" sched_from_config)
if(NOT sched_from_flags STREQUAL sched_from_config)
  message(FATAL_ERROR "scheduled config run diverged from the flag run:\n"
                      "${sched_from_flags}\n--- vs ---\n${sched_from_config}")
endif()

# --- 2. A custom device defined only in a file runs with no registry
# ---    edit (the committed example specs double as the fixtures).
foreach(example comet_16ch hybrid_custom)
  execute_process(
    COMMAND ${COMET_SIM} --device-file ${EXAMPLES_DIR}/${example}.toml
            --workload gcc_like --requests 500
            --json ${WORK_DIR}/${example}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  expect_rc("device-file ${example}" "${rc}" 0)
  file(READ ${WORK_DIR}/${example}.json json)
  expect_contains("device-file ${example}" "${json}" "\"requests\": 500")
endforeach()
file(READ ${WORK_DIR}/hybrid_custom.json json)
expect_contains("custom hybrid" "${json}" "\"device\": \"hybrid-comet-8ch-wna\"")
expect_contains("custom hybrid" "${json}" "\"hybrid\": true")
expect_contains("custom hybrid" "${json}" "\"channels\": 8")
execute_process(
  COMMAND ${COMET_SIM} --device-file ${EXAMPLES_DIR}/comet_16ch.toml
          --workload gcc_like --requests 200
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("custom device table" "${rc}" 0)
expect_contains("custom device table" "${out}" "comet-16ch")

# --- 3. The committed sweep experiments parse and expand.
execute_process(
  COMMAND ${COMET_SIM} --config ${EXAMPLES_DIR}/full_sweep.toml
          --dump-config ${WORK_DIR}/full_sweep_resolved.toml
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("example sweep resolves" "${rc}" 0)
expect_contains("example sweep resolves" "${out}" "3 device(s)")
expect_contains("example sweep resolves" "${out}" "3 workload(s)")
execute_process(
  COMMAND ${COMET_SIM} --config ${EXAMPLES_DIR}/scheduled_sweep.toml
          --dump-config ${WORK_DIR}/scheduled_sweep_resolved.toml
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("scheduled example resolves" "${rc}" 0)
expect_contains("scheduled example resolves" "${out}" "3 device(s)")
file(READ ${WORK_DIR}/scheduled_sweep_resolved.toml sched_sweep_toml)
expect_contains("scheduled example resolves" "${sched_sweep_toml}"
                "policy = [\"fcfs\", \"frfcfs\", \"read-first\"]")

# --- 4. Missing config file: exit 2 before any simulation runs.
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/nope.toml
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("missing config" "${rc}" 2)
expect_contains("missing config" "${err}" "nope.toml")

# --- 5. Schema errors exit 2 naming file, line and key.
file(WRITE ${WORK_DIR}/typo.toml
     "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"gcc_like\"]\nrequets = 5\n")
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/typo.toml
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("unknown key" "${rc}" 2)
expect_contains("unknown key" "${err}" "typo.toml:4")
expect_contains("unknown key" "${err}" "requets")

file(WRITE ${WORK_DIR}/badtype.toml
     "[device]\nbase = \"comet\"\n[device.timing]\nchannels = \"many\"\n")
execute_process(
  COMMAND ${COMET_SIM} --device-file ${WORK_DIR}/badtype.toml
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("bad type" "${rc}" 2)
expect_contains("bad type" "${err}" "badtype.toml:4")
expect_contains("bad type" "${err}" "expects integer")

# --- 6. --config owns the matrix: combining with matrix flags exits 2.
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/comet.toml --device comet
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("config conflicts" "${rc}" 2)
expect_contains("config conflicts" "${err}" "--config cannot be combined")
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/comet.toml --schedule frfcfs
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("config/schedule conflict" "${rc}" 2)
expect_contains("config/schedule conflict" "${err}"
                "--config cannot be combined")

# --- 7. Every committed example dumps to a fixed point: re-loading a
# ---    --dump-config output and dumping it again is byte-identical.
file(GLOB examples ${EXAMPLES_DIR}/*.toml)
foreach(path ${examples})
  get_filename_component(example ${path} NAME_WE)
  file(READ ${path} text)
  string(FIND "${text}" "[experiment]" is_experiment)
  if(is_experiment EQUAL -1)
    set(load --device-file ${path} --workload gcc_like)
  else()
    set(load --config ${path})
  endif()
  execute_process(
    COMMAND ${COMET_SIM} ${load} --dump-config ${WORK_DIR}/${example}_dump1.toml
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("dump ${example}" "${rc}" 0)
  execute_process(
    COMMAND ${COMET_SIM} --config ${WORK_DIR}/${example}_dump1.toml
            --dump-config ${WORK_DIR}/${example}_dump2.toml
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("re-dump ${example}" "${rc}" 0)
  file(READ ${WORK_DIR}/${example}_dump1.toml first)
  file(READ ${WORK_DIR}/${example}_dump2.toml second)
  if(NOT first STREQUAL second)
    message(FATAL_ERROR "--dump-config of ${example} is not a fixed point:\n"
                        "${first}\n--- vs ---\n${second}")
  endif()
endforeach()

message(STATUS "config CLI tests passed")
