# Determinism check for a bench binary: runs that must agree do, byte for
# byte.
#
# Runs BENCH_BIN once per entry of RUN_ENV, in order, each time with
# --deterministic (host-dependent fields omitted) and with SHARED_ENV plus
# that run's own NAME=VALUE in its environment (an empty VALUE selects the
# knob's default). Each run's result JSON must be byte-identical to the
# previous run's — and, when ARTIFACT_KNOB is set, so must the file that
# knob points each run at (design_sweep's SX4NCAR_SWEEP_REPORT). A run
# that exits non-zero fails the check.
#
# Required -D variables: BENCH_BIN, BENCH_NAME, OUT_DIR, and
#   RUN_ENV        one NAME=VALUE per run, separated by "|"
# Optional:
#   SHARED_ENV     NAME=VALUE assignments for every run, separated by "|"
#   ARTIFACT_KNOB  knob naming a second output file to compare

foreach(var BENCH_BIN BENCH_NAME OUT_DIR RUN_ENV)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "identical_runs_check: ${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})
string(REPLACE "|" ";" shared_env "${SHARED_ENV}")
string(REPLACE "|" ";" runs "${RUN_ENV}")

set(suffixes json)
if(ARTIFACT_KNOB)
  list(APPEND suffixes artifact.json)
endif()

set(run 0)
foreach(run_env IN LISTS runs)
  set(out ${OUT_DIR}/${BENCH_NAME}.run${run})
  set(artifact_env "")
  if(ARTIFACT_KNOB)
    set(artifact_env ${ARTIFACT_KNOB}=${out}.artifact.json)
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      ${shared_env} ${run_env} ${artifact_env}
      ${BENCH_BIN} --deterministic --json ${out}.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${BENCH_NAME} failed (run ${run}: ${run_env}, exit ${rc}):\n"
      "${stdout}\n${stderr}")
  endif()
  if(run GREATER 0)
    math(EXPR prev "${run} - 1")
    foreach(suffix IN LISTS suffixes)
      set(a ${OUT_DIR}/${BENCH_NAME}.run${prev}.${suffix})
      set(b ${OUT_DIR}/${BENCH_NAME}.run${run}.${suffix})
      execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                      RESULT_VARIABLE diff)
      if(NOT diff EQUAL 0)
        message(FATAL_ERROR
          "${BENCH_NAME}: ${suffix} differs between run ${prev} "
          "(${prev_env}) and run ${run} (${run_env}); compare\n"
          "  ${a}\n  ${b}")
      endif()
    endforeach()
  endif()
  set(prev_env "${run_env}")
  math(EXPR run "${run} + 1")
endforeach()

message(STATUS "${BENCH_NAME}: ${run} runs byte-identical (${RUN_ENV})")
