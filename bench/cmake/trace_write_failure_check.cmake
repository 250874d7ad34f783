# A span trace that cannot be written fails the run.
#
# In SX4NCAR_TRACE=stream a bench streams its spans to
# <results>/<bench>.trace.sxt. This points that path at /dev/full, where
# every write fails, so the sinks' chunk hand-offs fail mid-run. The check
# passes only when the run exits 1 on the failed
# <bench>.trace_stream.written expectation: spans are never dropped
# silently from a run that still passes.
#
# Required -D variables: BENCH_BIN, BENCH_NAME, OUT_DIR.

foreach(var BENCH_BIN BENCH_NAME OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_write_failure_check: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
file(CREATE_LINK /dev/full ${OUT_DIR}/${BENCH_NAME}.trace.sxt SYMBOLIC)

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    SX4NCAR_TRACE=stream
    SX4NCAR_BENCH_FULL=
    SX4NCAR_BENCH_RESULTS_DIR=${OUT_DIR}
    ${BENCH_BIN} --deterministic --json ${OUT_DIR}/${BENCH_NAME}.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)

if(NOT rc STREQUAL "1")
  message(FATAL_ERROR
    "${BENCH_NAME} with an unwritable trace exited ${rc}, not 1:\n"
    "${stdout}\n${stderr}")
endif()
string(FIND "${stdout}" "FAILED ${BENCH_NAME}.trace_stream.written" named)
if(named EQUAL -1)
  message(FATAL_ERROR
    "${BENCH_NAME} failed without the trace_stream.written check:\n"
    "${stdout}\n${stderr}")
endif()

message(STATUS "${BENCH_NAME}: unwritable trace failed the run")
