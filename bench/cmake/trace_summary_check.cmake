# Trace-mode regression check: summary mode only adds attribution rows.
#
# Runs BENCH_BIN with --deterministic under SX4NCAR_TRACE= (off) and
# SX4NCAR_TRACE=summary. Every metric of the off-mode JSON must appear in
# the summary-mode JSON with the same value, and every metric that only the
# summary-mode JSON has must be an attribution row (a key containing
# `.attribution.`). A Cpu prices a descriptor the same way in every trace
# mode, so the simulated numbers and the cost-cache counters alike must not
# move when attribution is switched on.
#
# Required -D variables: BENCH_BIN, BENCH_NAME, OUT_DIR.

cmake_minimum_required(VERSION 3.19)  # string(JSON), if(IN_LIST)

foreach(var BENCH_BIN BENCH_NAME OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_summary_check: ${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})

function(run_trace trace tag)
  set(out ${OUT_DIR}/${BENCH_NAME}.${tag}.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      SX4NCAR_BENCH_FULL=
      SX4NCAR_TRACE=${trace}
      ${BENCH_BIN} --deterministic --json ${out}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${BENCH_NAME} failed (SX4NCAR_TRACE=${trace}, exit ${rc}):\n"
      "${stdout}\n${stderr}")
  endif()
  file(READ ${out} json)
  set(${tag} "${json}" PARENT_SCOPE)
endfunction()

run_trace("" off)
run_trace(summary summary)

# The keys of `json`'s metrics object, in document order.
function(metric_keys json out_var)
  string(JSON count LENGTH "${json}" metrics)
  set(keys "")
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON key MEMBER "${json}" metrics ${i})
      list(APPEND keys "${key}")
    endforeach()
  endif()
  set(${out_var} "${keys}" PARENT_SCOPE)
endfunction()

metric_keys("${off}" off_keys)
metric_keys("${summary}" summary_keys)

set(bad "")
foreach(key IN LISTS off_keys)
  if(key MATCHES "\\.attribution\\.")
    continue()
  endif()
  string(JSON a GET "${off}" metrics "${key}")
  string(JSON b ERROR_VARIABLE missing GET "${summary}" metrics "${key}")
  if(missing)
    string(APPEND bad "\n  ${key}: off ${a}, missing in summary")
  elseif(NOT a STREQUAL b)
    string(APPEND bad "\n  ${key}: off ${a}, summary ${b}")
  endif()
endforeach()
foreach(key IN LISTS summary_keys)
  if(NOT key MATCHES "\\.attribution\\." AND NOT key IN_LIST off_keys)
    string(APPEND bad "\n  ${key}: only in summary, not an attribution row")
  endif()
endforeach()

if(NOT bad STREQUAL "")
  message(FATAL_ERROR
    "${BENCH_NAME}: summary mode changed more than attribution rows:${bad}\n"
    "compare ${OUT_DIR}/${BENCH_NAME}.off.json and "
    "${OUT_DIR}/${BENCH_NAME}.summary.json")
endif()

message(STATUS
  "${BENCH_NAME}: summary mode only adds attribution rows")
