# Runs tools/attainment_report on one well-formed attainment JSONL file and
# on three whose second row carries an integer field no integer type can
# hold. The good file must render; each bad one must exit 1 with an
# "error: <file>:<line>:" message rather than cast the value.
#
#   cmake -DREPORT=<attainment_report binary> -DWORK_DIR=<output dir> \
#         -P attainment_report_test.cmake

set(good "{\"type\":\"budget\",\"interval\":2,\"class\":1,\"node\":0,\"requests\":4,\"sim_time_ms\":6000,\"rt_sum_ms\":10,\"cpu_wait_ms\":1,\"residual_ms\":9}\n")
file(WRITE ${WORK_DIR}/attainment_good.jsonl "${good}")
execute_process(COMMAND ${REPORT} ${WORK_DIR}/attainment_good.jsonl
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "3 observation intervals" OR
   NOT out MATCHES "\\| 1 \\| 4 \\| 2\\.500 \\| 10\\.0 \\|")
  message(FATAL_ERROR "good input: exit ${rc}\n${out}${err}")
endif()

# Each bad row, and the field its error must name.
set(bad_rows
    "{\"type\":\"budget\",\"interval\":0,\"class\":-1,\"requests\":1}"
    "{\"type\":\"budget\",\"interval\":1e300,\"class\":1,\"requests\":1}"
    "{\"type\":\"budget\",\"interval\":0,\"class\":nan,\"requests\":1}")
set(bad_fields class interval class)
foreach(i RANGE 2)
  list(GET bad_rows ${i} row)
  list(GET bad_fields ${i} field)
  set(file ${WORK_DIR}/attainment_bad${i}.jsonl)
  file(WRITE ${file} "${good}${row}\n")
  execute_process(COMMAND ${REPORT} ${file}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR
     NOT err MATCHES "error: [^\n]*attainment_bad${i}\\.jsonl:2: \"${field}\"")
    message(FATAL_ERROR "bad input ${row}: exit ${rc}\n${out}${err}")
  endif()
endforeach()
