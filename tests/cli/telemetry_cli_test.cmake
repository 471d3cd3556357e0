# End-to-end CLI checks for the telemetry subsystem, run under ctest.
# Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -DPYTHON=<python3> -DVALIDATOR=<repo>/scripts/validate_trace.py
#         -DEXAMPLES_DIR=<repo>/examples/configs
#         -P telemetry_cli_test.cmake
#
# Covers the ISSUE acceptance loop: a scheduled run with --trace-out +
# --metrics-interval writes a Perfetto-loadable Chrome trace (validated
# by scripts/validate_trace.py) and a non-empty timeline whose per-epoch
# request counts sum to the run's reads+writes, while the same run
# without telemetry flags produces bit-identical results. Plus the
# truncation record under --trace-limit, the timeline CSV, the
# [telemetry] --dump-config round-trip, --list-policies, the
# flag-dependency diagnostics, the two-stage hybrid stack, and the flat
# smoke: a 1 µs-epoch frfcfs trace, a 64-event capped trace and the
# committed telemetry_sweep.toml expanding through --dump-config.

if(NOT DEFINED COMET_SIM OR NOT DEFINED WORK_DIR OR NOT DEFINED PYTHON
   OR NOT DEFINED VALIDATOR OR NOT DEFINED EXAMPLES_DIR)
  message(FATAL_ERROR
          "pass -DCOMET_SIM=..., -DWORK_DIR=..., -DPYTHON=..., -DVALIDATOR=... "
          "and -DEXAMPLES_DIR=...")
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

# --- 1. The acceptance run: scheduled, traced, epoch-sampled.
set(flags --device comet --workload gcc_like --requests 20000 --seed 11
    --schedule frfcfs)
execute_process(
  COMMAND ${COMET_SIM} ${flags}
          --trace-out ${WORK_DIR}/run.json --metrics-interval 1000000
          --metrics-csv ${WORK_DIR}/run.csv --json ${WORK_DIR}/traced.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("traced run" "${rc}" 0)
expect_contains("traced run" "${out}" "wrote ${WORK_DIR}/run.json")
expect_contains("traced run" "${out}" "wrote ${WORK_DIR}/run.csv")

# --- 2. The trace is structurally valid (JSON shape, monotonic tracks,
# ---    balanced queued spans, no spurious truncation record).
execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} ${WORK_DIR}/run.json --min-events 20000
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("validate_trace" "${rc}" 0)

# --- 3. Timeline reconciliation: the JSON report's timeline epochs sum
# ---    to the run's reads+writes, and the CSV has one row per epoch.
execute_process(
  COMMAND ${PYTHON} -c "
import json, sys
report = json.load(open(sys.argv[1]))
record = report['results'][0]
timeline = record['timeline']
assert timeline, 'timeline is empty'
total = sum(p['reads'] + p['writes'] for p in timeline)
expected = record['reads'] + record['writes']
assert total == expected, f'timeline sums to {total}, run has {expected}'
for point in timeline:
    assert sum(point['channel_requests']) == point['reads'] + point['writes']
telemetry = record['telemetry']
assert telemetry['recorded_events'] == expected
assert telemetry['truncated'] is False
with open(sys.argv[2]) as handle:
    rows = handle.read().strip().splitlines()
assert rows[0].startswith('run,epoch,start_ns,end_ns,reads,writes')
assert len(rows) - 1 == len(timeline), (len(rows) - 1, len(timeline))
print('timeline OK:', len(timeline), 'epochs,', total, 'requests')
" ${WORK_DIR}/traced.json ${WORK_DIR}/run.csv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "timeline reconciliation failed:\n${out}\n${err}")
endif()

# --- 4. Observation does not perturb: the same run without telemetry
# ---    flags is bit-identical once the telemetry report fields (null
# ---    in the untraced run) are deleted — the jq del() contract.
execute_process(
  COMMAND ${COMET_SIM} ${flags} --json ${WORK_DIR}/untraced.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("untraced run" "${rc}" 0)
execute_process(
  COMMAND ${PYTHON} -c "
import json, sys
telemetry_keys = ('trace_out', 'trace_limit', 'metrics_interval_ns',
                  'metrics_csv', 'telemetry', 'timeline')
def strip(path):
    report = json.load(open(path))
    for record in report['results']:
        for key in telemetry_keys:
            assert key in record, f'{path}: missing {key}'
            del record[key]
    return report
plain = json.load(open(sys.argv[1]))['results'][0]
assert plain['trace_out'] is None and plain['timeline'] is None
assert strip(sys.argv[1]) == strip(sys.argv[2]), 'results diverged'
print('bit-identity OK')
" ${WORK_DIR}/untraced.json ${WORK_DIR}/traced.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced-vs-untraced bit-identity failed:\n${out}\n${err}")
endif()

# --- 5. Truncation: a capped trace stays within the cap and carries
# ---    the explicit truncation record.
execute_process(
  COMMAND ${COMET_SIM} ${flags}
          --trace-out ${WORK_DIR}/capped.json --trace-limit 100
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("capped run" "${rc}" 0)
expect_contains("capped run" "${out}" "dropped")
execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} ${WORK_DIR}/capped.json --expect-truncated
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("validate capped trace" "${rc}" 0)

# --- 6. The [telemetry] section round-trips through --dump-config and
# ---    replays from --config with telemetry still armed.
execute_process(
  COMMAND ${COMET_SIM} ${flags}
          --trace-out ${WORK_DIR}/cfg_run.json --metrics-interval 1000000
          --dump-config ${WORK_DIR}/telemetry.toml
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("dump-config" "${rc}" 0)
file(READ ${WORK_DIR}/telemetry.toml toml_text)
expect_contains("dumped toml" "${toml_text}" "[telemetry]")
expect_contains("dumped toml" "${toml_text}" "metrics_interval_ns = 1000000")
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/telemetry.toml
          --json ${WORK_DIR}/from_config.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("config replay" "${rc}" 0)
expect_contains("config replay" "${out}" "wrote ${WORK_DIR}/cfg_run.json")
execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} ${WORK_DIR}/cfg_run.json --min-events 20000
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("validate config-run trace" "${rc}" 0)

# --- 7. --list-policies prints every scheduler token and exits 0.
execute_process(
  COMMAND ${COMET_SIM} --list-policies
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("--list-policies" "${rc}" 0)
foreach(policy fcfs frfcfs read-first)
  expect_contains("--list-policies" "${out}" "${policy}")
endforeach()
expect_contains("--list-policies" "${out}" "knobs:")

# --- 8. Flag-dependency diagnostics exit 2 before any simulation.
execute_process(
  COMMAND ${COMET_SIM} --trace-limit 100
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("--trace-limit without --trace-out" "${rc}" 2)
expect_contains("--trace-limit diagnostic" "${err}" "--trace-out")
execute_process(
  COMMAND ${COMET_SIM} --metrics-csv nope.csv
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("--metrics-csv without --metrics-interval" "${rc}" 2)
expect_contains("--metrics-csv diagnostic" "${err}" "--metrics-interval")

# --- 9. The hybrid stack: a scheduled hybrid run, traced and sampled,
# ---    registers one telemetry stage per tier, writes a valid trace
# ---    and a timeline that reconciles with its per-channel counts, and
# ---    matches the untraced run once the telemetry fields are deleted.
set(hybrid_flags --device hybrid-comet --workload lbm_like --requests 5000
    --schedule read-first --read-q 16 --write-q 16)
execute_process(
  COMMAND ${COMET_SIM} ${hybrid_flags}
          --trace-out ${WORK_DIR}/hybrid_trace.json --metrics-interval 1000
          --metrics-csv ${WORK_DIR}/hybrid_timeline.csv
          --json ${WORK_DIR}/hybrid_traced.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("hybrid traced run" "${rc}" 0)
execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} ${WORK_DIR}/hybrid_trace.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("validate hybrid trace" "${rc}" 0)
execute_process(
  COMMAND ${COMET_SIM} ${hybrid_flags} --json ${WORK_DIR}/hybrid_untraced.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("hybrid untraced run" "${rc}" 0)
execute_process(
  COMMAND ${PYTHON} -c "
import json, os, sys
traced_path, untraced_path, trace_path, csv_path = sys.argv[1:5]
record = json.load(open(traced_path))['results'][0]
stages = [stage['stage'] for stage in record['telemetry']['stages']]
assert stages == ['dram', 'backend'], stages
timeline = record['timeline']
assert timeline, 'timeline is empty'
total = sum(p['reads'] + p['writes'] for p in timeline)
channels = sum(sum(p['channel_requests']) for p in timeline)
assert total == channels, f'timeline sums to {total}, channels to {channels}'
assert record['trace_out'] == trace_path, record['trace_out']
assert record['metrics_interval_ns'] == 1000, record['metrics_interval_ns']
assert os.path.getsize(csv_path) > 0, 'empty timeline CSV'
telemetry_keys = ('trace_out', 'trace_limit', 'metrics_interval_ns',
                  'metrics_csv', 'telemetry', 'timeline')
def strip(path):
    report = json.load(open(path))
    for result in report['results']:
        for key in telemetry_keys:
            del result[key]
    return report
assert strip(traced_path) == strip(untraced_path), 'results diverged'
print('hybrid telemetry OK:', len(timeline), 'epochs,', total, 'requests')
" ${WORK_DIR}/hybrid_traced.json ${WORK_DIR}/hybrid_untraced.json
  ${WORK_DIR}/hybrid_trace.json ${WORK_DIR}/hybrid_timeline.csv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hybrid telemetry checks failed:\n${out}\n${err}")
endif()

# --- 10. The flat smoke: a single-stage frfcfs trace at a 1 µs epoch
# ---     whose timeline sums to the run's reads+writes exactly, a trace
# ---     capped at 64 events carrying the truncation record, and the
# ---     committed traced-sweep example expanding through --dump-config.
execute_process(
  COMMAND ${COMET_SIM} --device comet --workload gcc_like --requests 5000
          --schedule frfcfs --trace-out ${WORK_DIR}/flat_trace.json
          --metrics-interval 1000 --json ${WORK_DIR}/flat_telemetry.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("flat traced run" "${rc}" 0)
execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} ${WORK_DIR}/flat_trace.json --min-events 5000
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("validate flat trace" "${rc}" 0)
execute_process(
  COMMAND ${PYTHON} -c "
import json, sys
record = json.load(open(sys.argv[1]))['results'][0]
total = sum(p['reads'] + p['writes'] for p in record['timeline'])
expected = record['reads'] + record['writes']
assert total == expected, f'timeline sums to {total}, run has {expected}'
print('flat timeline OK:', total, 'requests')
" ${WORK_DIR}/flat_telemetry.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flat timeline reconciliation failed:\n${out}\n${err}")
endif()
execute_process(
  COMMAND ${COMET_SIM} --device comet --workload gcc_like --requests 5000
          --trace-out ${WORK_DIR}/capped_trace.json --trace-limit 64
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("flat capped run" "${rc}" 0)
execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} ${WORK_DIR}/capped_trace.json
          --expect-truncated
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("validate flat capped trace" "${rc}" 0)
execute_process(
  COMMAND ${COMET_SIM} --config ${EXAMPLES_DIR}/telemetry_sweep.toml
          --dump-config ${WORK_DIR}/resolved_telemetry.toml
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("telemetry_sweep.toml --dump-config" "${rc}" 0)
file(READ ${WORK_DIR}/resolved_telemetry.toml resolved_text)
expect_contains("resolved telemetry_sweep" "${resolved_text}" "[telemetry]")

message(STATUS "telemetry CLI checks passed")
