# Rejection check for a malformed runtime knob or an unknown command-line
# option.
#
# The knob table checks every SX4NCAR_* setting at its one read of the
# environment and throws ncar::config_error on a name it does not declare
# or a value the name's row does not accept; BenchReporter turns that into
# exit 2 with a message naming the knob, and does the same for an option
# it does not take. This runs BENCH_BIN with KNOB=VALUE in its
# environment, or with the arguments `KNOB VALUE` when KNOB starts with
# "--", and passes only when the run exits 2 and its output names the
# knob; any other exit, a crash included, fails. The examples reuse it:
# they ignore the arguments and exit 2 on a bad knob the same way.
#
# Required -D variables: BENCH_BIN, BENCH_NAME, OUT_DIR, KNOB, VALUE.

foreach(var BENCH_BIN BENCH_NAME OUT_DIR KNOB VALUE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "knob_rejected_check: ${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})

if(KNOB MATCHES "^--")
  set(knob_env "")
  set(knob_args ${KNOB} ${VALUE})
else()
  set(knob_env ${KNOB}=${VALUE})
  set(knob_args "")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    ${knob_env}
    ${BENCH_BIN} --deterministic
      --json ${OUT_DIR}/${BENCH_NAME}.${KNOB}.json ${knob_args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)

if(NOT rc STREQUAL "2")
  message(FATAL_ERROR
    "${BENCH_NAME} with ${KNOB}=${VALUE} exited ${rc}, not 2:\n"
    "${stdout}\n${stderr}")
endif()
string(FIND "${stdout}${stderr}" "${KNOB}" named)
if(named EQUAL -1)
  message(FATAL_ERROR
    "${BENCH_NAME} rejected ${KNOB}=${VALUE} (exit ${rc}) without naming "
    "the knob:\n${stdout}\n${stderr}")
endif()

message(STATUS "${BENCH_NAME}: ${KNOB}=${VALUE} rejected (exit ${rc})")
