# Runs the command-line programs on a flag value that does not convert, on
# values that convert but lie outside what the program can run, and on an
# unknown --flag. Each run must exit with a non-zero status (not a signal)
# and print the error line, never a "CHECK failed" abort.
#
#   cmake -DFIG2=<bench_fig2_base> -DFAULTS=<bench_faults> \
#         -DFUZZ=<chaos_fuzz> -DCOMPARE=<bench_compare> \
#         -DQUICKSTART=<quickstart> -DUPDATE=<update_workload> \
#         -DSCALING=<now_scaling> -DDYNAMIC=<dynamic_goals> \
#         -DMIX=<oltp_dss_mix> -DSCALING_BENCH=<bench_scaling> \
#         -P flag_errors_test.cmake

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
expect("error: grid must be NxK .*, got '256'"
       ${SCALING_BENCH} --bench-json=off part=c grid=256)
expect("error: grid must be NxK .*, got 'axb'"
       ${SCALING_BENCH} --bench-json=off part=c grid=axb)
expect("error: grid must be NxK .*, got '0x8'"
       ${SCALING_BENCH} --bench-json=off part=c grid=0x8)
expect("crash_at_ms must be a number, got soon"
       ${FAULTS} --quick --bench-json=off crash_at_ms=soon)
expect("unknown flag --bogus-flag"
       ${FAULTS} --quick --bench-json=off --bogus-flag)
expect("error: seeds must be in 1..2147483647, got x" ${FUZZ} seeds=x)
expect("error: nodes must be in 3..32, got 2" ${FUZZ} --nodes=2)
expect("error: horizon_ms must be finite and > 0, got -5"
       ${FUZZ} --horizon-ms=-5)
expect("error: unknown flag --bogus-flag" ${FUZZ} --bogus-flag)
expect("error: goal_ms must be finite and > 0, got -1" ${FUZZ} goal_ms=-1)
expect("wall_threshold must be a number, got abc"
       ${COMPARE} --wall-threshold=abc base cand)
expect("unknown flag --bogus-flag" ${COMPARE} --bogus-flag base cand)
expect("intervals must be in 0..2147483647, got abc"
       ${QUICKSTART} intervals=abc)
expect("nodes must be in 1..65535, got 0" ${QUICKSTART} nodes=0)
expect("cache_bytes must be >= 0, got -5" ${QUICKSTART} cache_bytes=-5)
expect("unknown flag --bogus-flag" ${QUICKSTART} --bogus-flag)

# The examples read their cluster through core::LoadScenario, so every
# scenario key is range-checked before anything is built or allocated.
expect("error: interval_ms must be finite and > 0, got 0"
       ${QUICKSTART} interval_ms=0)
expect("error: class1_pages must be begin:end .*, got '0:0'"
       ${QUICKSTART} class1_pages=0:0)
expect("error: class1_pages must be begin:end .*, got '0:5000'"
       ${QUICKSTART} class1_pages=0:5000)
expect("error: class1_goal_ms must be finite and > 0, got -1"
       ${QUICKSTART} class1_goal_ms=-1)
expect("error: db_pages \\* nodes must be <= 134217728, got 4000000000 \\* 3"
       ${QUICKSTART} db_pages=4000000000)
expect("error: class1_accesses must be in 1..2147483647, got 0"
       ${QUICKSTART} class1_accesses=0)
expect("error: class1_interarrival_ms must be finite and > 0, got 0"
       ${QUICKSTART} class1_interarrival_ms=0)
expect("error: class1_skew must be finite and >= 0, got -1"
       ${QUICKSTART} class1_skew=-1)
# What an example cannot run: fewer classes than it reads, the invariant
# auditor (only memgoal_sim attaches it), empty update transactions.
expect("error: classes must be >= 2, got 1" ${QUICKSTART} classes=1)
expect("error: audit is not run by the examples" ${QUICKSTART} audit=1)
expect("error: reads \\+ writes must be >= 1, got 0"
       ${UPDATE} reads=0 writes=0)
expect("error: reads must be in 0..2147483647, got -1" ${UPDATE} reads=-1)
expect("error: writes must be in 0..2147483647, got -1" ${UPDATE} writes=-1)
expect("error: txn_interarrival_ms must be finite and > 0, got 0"
       ${UPDATE} txn_interarrival_ms=0)
expect("error: intervals must be >= 1 .*, got 0" ${UPDATE} intervals=0)
expect("error: class2_goal_ms must be finite and > 0, got 0"
       ${SCALING} class2_goal_ms=0)
expect("error: intervals must be 80 .*, got 10" ${DYNAMIC} intervals=10)
expect("error: intervals must be >= 1 .*, got 0" ${MIX} intervals=0)
