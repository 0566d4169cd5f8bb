# Runs five command-line programs on a flag value that does not convert and
# on an unknown --flag. Each run must exit with a non-zero status (not a
# signal) and print the error line, never a "CHECK failed" abort.
#
#   cmake -DFIG2=<bench_fig2_base> -DFAULTS=<bench_faults> \
#         -DFUZZ=<chaos_fuzz> -DCOMPARE=<bench_compare> \
#         -DQUICKSTART=<quickstart> -P flag_errors_test.cmake

# expect(<error regex> <program> <args...>)
function(expect pattern)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0 OR NOT err MATCHES "${pattern}"
     OR err MATCHES "CHECK failed")
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "${command}: exit ${rc}\n${out}${err}")
  endif()
endfunction()

expect("intervals must be an integer, got abc"
       ${FIG2} --quick --bench-json=off intervals=abc)
expect("unknown flag --bogus-flag"
       ${FIG2} --quick --bench-json=off --bogus-flag)
expect("crash_at_ms must be a number, got soon"
       ${FAULTS} --quick --bench-json=off crash_at_ms=soon)
expect("unknown flag --bogus-flag"
       ${FAULTS} --quick --bench-json=off --bogus-flag)
expect("error: seeds must be an integer, got x" ${FUZZ} seeds=x)
expect("error: unknown flag --bogus-flag" ${FUZZ} --bogus-flag)
expect("wall_threshold must be a number, got abc"
       ${COMPARE} --wall-threshold=abc base cand)
expect("unknown flag --bogus-flag" ${COMPARE} --bogus-flag base cand)
expect("intervals must be an integer, got abc" ${QUICKSTART} intervals=abc)
expect("unknown flag --bogus-flag" ${QUICKSTART} --bogus-flag)
