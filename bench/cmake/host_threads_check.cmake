# Rejection check for a malformed SX4NCAR_HOST_THREADS.
#
# The knob has one parser, ThreadPool::threads_from_env: unset or empty
# means the hardware thread count, a decimal integer 0..1024 is a thread
# count, and anything else is an error. This runs BENCH_BIN with
# SX4NCAR_HOST_THREADS=abc and passes only when the run exits non-zero and
# its output names the knob.
#
# Required -D variables: BENCH_BIN, BENCH_NAME, OUT_DIR.

foreach(var BENCH_BIN BENCH_NAME OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "host_threads_check: ${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    SX4NCAR_HOST_THREADS=abc
    SX4NCAR_BENCH_FULL=
    ${BENCH_BIN} --deterministic --json ${OUT_DIR}/${BENCH_NAME}.abc.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)

if(rc EQUAL 0)
  message(FATAL_ERROR
    "${BENCH_NAME} accepted SX4NCAR_HOST_THREADS=abc (exit 0):\n"
    "${stdout}\n${stderr}")
endif()
string(FIND "${stdout}${stderr}" "SX4NCAR_HOST_THREADS" named)
if(named EQUAL -1)
  message(FATAL_ERROR
    "${BENCH_NAME} rejected SX4NCAR_HOST_THREADS=abc (exit ${rc}) without "
    "naming the knob:\n${stdout}\n${stderr}")
endif()

message(STATUS "${BENCH_NAME}: SX4NCAR_HOST_THREADS=abc rejected (exit ${rc})")
