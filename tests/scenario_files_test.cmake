# Runs tools/memgoal_sim on every checked-in scenario file for two
# intervals. Each run must exit 0 without an "error:" line and without an
# unused-key warning, so a renamed or narrowed scenario key cannot leave a
# file behind.
#
#   cmake -DSIM=<memgoal_sim binary> -DSCENARIO_DIR=<tools/scenarios> \
#         -P scenario_files_test.cmake

file(GLOB scenarios ${SCENARIO_DIR}/*.conf)
if(NOT scenarios)
  message(FATAL_ERROR "no scenario files in ${SCENARIO_DIR}")
endif()
foreach(scenario ${scenarios})
  execute_process(COMMAND ${SIM} ${scenario} intervals=2
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR err MATCHES "error:" OR
     err MATCHES "# warning: unused key")
    message(FATAL_ERROR "${scenario}: exit ${rc}\n${err}")
  endif()
endforeach()
