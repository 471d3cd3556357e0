# End-to-end CLI checks of the memory-controller scheduler, run under
# ctest. Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -DEXAMPLES_DIR=<examples/configs> -P sched_cli_test.cmake
#
# Covers: frfcfs on a flat device (a populated sched object and ordered
# read-latency percentiles on every workload) and on a hybrid backend
# (the queue depth reaches the report); the regression anchor that
# unbounded-queue fcfs reproduces the legacy direct replay; the
# scheduled_sweep.toml example expanding; and a flag run replaying
# bit-identically through its own --dump-config document. JSON is read
# with CMake's string(JSON).

if(NOT DEFINED COMET_SIM OR NOT DEFINED WORK_DIR OR NOT DEFINED EXAMPLES_DIR)
  message(FATAL_ERROR "pass -DCOMET_SIM=..., -DWORK_DIR=... and -DEXAMPLES_DIR=...")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_eq label actual expected)
  if(NOT "${actual}" STREQUAL "${expected}")
    message(FATAL_ERROR "${label}: expected '${expected}', got '${actual}'")
  endif()
endfunction()

# Runs comet_sim with the remaining arguments plus --json <name>.json,
# requires exit 0, and sets <name>_json in the caller.
function(run_json name)
  execute_process(
    COMMAND ${COMET_SIM} ${ARGN} --json ${WORK_DIR}/${name}.json
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_eq("${name} exit (${err})" "${rc}" 0)
  file(READ ${WORK_DIR}/${name}.json json)
  set(${name}_json "${json}" PARENT_SCOPE)
endfunction()

# Sets `out_var` to `json` with the `field` of every result removed.
function(drop_field json field out_var)
  string(JSON count LENGTH "${json}" results)
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON json REMOVE "${json}" results ${i} ${field})
  endforeach()
  set(${out_var} "${json}" PARENT_SCOPE)
endfunction()

# --- 1. frfcfs on a flat device: every run carries a populated sched
# ---    object and ordered read-latency percentiles.
run_json(sched_flat --device comet --workload all --requests 2000
         --schedule frfcfs)
string(JSON count LENGTH "${sched_flat_json}" results)
expect_eq("flat record count" "${count}" 8)
foreach(i RANGE 7)
  string(JSON policy GET "${sched_flat_json}" results ${i} sched policy)
  expect_eq("record ${i} sched.policy" "${policy}" frfcfs)
  string(JSON service GET "${sched_flat_json}"
         results ${i} sched avg_service_latency_ns)
  if(NOT service GREATER 0)
    message(FATAL_ERROR "record ${i}: avg_service_latency_ns ${service} <= 0")
  endif()
  string(JSON p50 GET "${sched_flat_json}" results ${i} p50_read_latency_ns)
  string(JSON p95 GET "${sched_flat_json}" results ${i} p95_read_latency_ns)
  string(JSON p99 GET "${sched_flat_json}" results ${i} p99_read_latency_ns)
  if(p50 GREATER p95 OR p95 GREATER p99)
    message(FATAL_ERROR "record ${i}: percentiles out of order: "
                        "p50 ${p50}, p95 ${p95}, p99 ${p99}")
  endif()
endforeach()

# --- 2. frfcfs behind a hybrid backend: the queue depth reaches the
# ---    report.
run_json(sched_hybrid --device hybrid-comet --workload gcc_like
         --requests 2000 --schedule frfcfs --read-q 16 --write-q 16)
string(JSON hybrid GET "${sched_hybrid_json}" results 0 hybrid)
expect_eq("hybrid record" "${hybrid}" ON)
string(JSON policy GET "${sched_hybrid_json}" results 0 sched policy)
expect_eq("hybrid sched.policy" "${policy}" frfcfs)
string(JSON depth GET "${sched_hybrid_json}" results 0 sched read_queue_depth)
expect_eq("hybrid sched.read_queue_depth" "${depth}" 16)

# --- 3. The regression anchor: unbounded-queue fcfs reproduces the
# ---    legacy direct-replay path bit for bit, once sched is removed.
run_json(legacy --device all --workload gcc_like --requests 2000)
run_json(fcfs_unbounded --device all --workload gcc_like --requests 2000
         --schedule fcfs --read-q 0 --write-q 0)
drop_field("${legacy_json}" sched legacy_json)
drop_field("${fcfs_unbounded_json}" sched fcfs_unbounded_json)
if(NOT legacy_json STREQUAL fcfs_unbounded_json)
  message(FATAL_ERROR "unbounded fcfs diverged from the direct replay:\n"
                      "${legacy_json}\n--- vs ---\n${fcfs_unbounded_json}")
endif()

# --- 4. The committed policy-sweep example expands.
execute_process(
  COMMAND ${COMET_SIM} --config ${EXAMPLES_DIR}/scheduled_sweep.toml
          --dump-config ${WORK_DIR}/resolved_sched.toml
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_eq("scheduled_sweep.toml dump exit (${err})" "${rc}" 0)

# --- 5. The command line is a config document: a flag run touching
# ---    every lowered section replays through its own --dump-config
# ---    with the same report, once the host profile and the config
# ---    path (provenance) are removed.
set(flags --device hybrid-comet --cache-ways 8 --requests 2000 --seed 3
    --tenants a=gcc_like:12,b=lbm_like:6:0.5 --tenant-mapping interleave
    --schedule frfcfs-cap --starvation-cap 4 --run-threads 2
    --metrics-interval 100000 --profile --assert-slo "p99_read_ns<=1e9")
run_json(flag_run ${flags})
execute_process(
  COMMAND ${COMET_SIM} ${flags} --dump-config ${WORK_DIR}/flag_run.toml
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_eq("flag run dump exit (${err})" "${rc}" 0)
run_json(config_run --config ${WORK_DIR}/flag_run.toml)
foreach(field host config_file)
  drop_field("${flag_run_json}" ${field} flag_run_json)
  drop_field("${config_run_json}" ${field} config_run_json)
endforeach()
if(NOT flag_run_json STREQUAL config_run_json)
  message(FATAL_ERROR "the --dump-config replay diverged from the flag run:\n"
                      "${flag_run_json}\n--- vs ---\n${config_run_json}")
endif()

message(STATUS "scheduler CLI tests passed")
