# Runs tools/memgoal_sim on every checked-in scenario file for two
# intervals, and base.conf once more on a single node. Each run must exit 0
# without an "error:" line, without an unused-key warning and without a
# "nan" in its summary, so a renamed or narrowed scenario key cannot leave a
# file behind and a one-node cluster (no network traffic) still prints
# finite shares.
#
#   cmake -DSIM=<memgoal_sim binary> -DSCENARIO_DIR=<tools/scenarios> \
#         -P scenario_files_test.cmake

function(run_clean)
  execute_process(COMMAND ${SIM} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR err MATCHES "error:" OR
     err MATCHES "# warning: unused key" OR err MATCHES "nan")
    message(FATAL_ERROR "${ARGN}: exit ${rc}\n${err}")
  endif()
endfunction()

file(GLOB scenarios ${SCENARIO_DIR}/*.conf)
if(NOT scenarios)
  message(FATAL_ERROR "no scenario files in ${SCENARIO_DIR}")
endif()
foreach(scenario ${scenarios})
  run_clean(${scenario} intervals=2)
endforeach()
run_clean(${SCENARIO_DIR}/base.conf nodes=1 intervals=2)
