# Runs the five examples at their defaults. Each run must exit 0 without an
# "error:" or "warning:" line on stderr and without a "nan" in its report,
# so an example whose scenario file or stated deviations drift cannot pass.
#
#   cmake -DEXAMPLE_DIR=<build/examples> -P examples_test.cmake

foreach(example quickstart oltp_dss_mix dynamic_goals now_scaling
                update_workload)
  execute_process(COMMAND ${EXAMPLE_DIR}/${example}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR err MATCHES "error:" OR err MATCHES "warning:" OR
     out MATCHES "nan")
    message(FATAL_ERROR "${example}: exit ${rc}\n${out}${err}")
  endif()
endforeach()
