# Runs five command-line programs on a flag value that does not convert, on
# values that convert but lie outside what the program can run, and on an
# unknown --flag. Each run must exit with a non-zero status (not a signal)
# and print the error line, never a "CHECK failed" abort.
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

expect("intervals must be in 0..2147483647, got abc"
       ${FIG2} --quick --bench-json=off intervals=abc)
expect("intervals must be in 0..2147483647, got -1"
       ${FIG2} --quick --bench-json=off intervals=-1)
expect("unknown flag --bogus-flag"
       ${FIG2} --quick --bench-json=off --bogus-flag)
expect("crash_at_ms must be a number, got soon"
       ${FAULTS} --quick --bench-json=off crash_at_ms=soon)
expect("unknown flag --bogus-flag"
       ${FAULTS} --quick --bench-json=off --bogus-flag)
expect("error: seeds must be in 1..2147483647, got x" ${FUZZ} seeds=x)
expect("error: nodes must be in 3..32, got 2" ${FUZZ} --nodes=2)
expect("error: horizon_ms must be finite and > 0, got -5"
       ${FUZZ} --horizon-ms=-5)
expect("error: unknown flag --bogus-flag" ${FUZZ} --bogus-flag)
expect("wall_threshold must be a number, got abc"
       ${COMPARE} --wall-threshold=abc base cand)
expect("unknown flag --bogus-flag" ${COMPARE} --bogus-flag base cand)
expect("intervals must be in 0..2147483647, got abc"
       ${QUICKSTART} intervals=abc)
expect("nodes must be in 1..65535, got 0" ${QUICKSTART} nodes=0)
expect("cache_bytes must be >= 0, got -5" ${QUICKSTART} cache_bytes=-5)
expect("unknown flag --bogus-flag" ${QUICKSTART} --bogus-flag)
