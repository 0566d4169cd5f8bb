# Runs tools/attainment_report on one well-formed attainment JSONL file and
# on three whose second row carries an integer field no integer type can
# hold. The good file must render; each bad one must exit 1 with an
# "error: <file>:<line>:" message rather than cast the value. Then reads
# the good file with a decision log as the second input: its miss card
# must count, a record without a card must add no class row, and a record
# whose class no integer type can hold must fail the same way.
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

# One class-1 record with a miss card and one class-2 record without one.
set(card "{\"interval\":2,\"class\":1,\"miss_card\":true,\"miss_dominant_phase\":\"disk_wait\",\"miss_dominant_ms\":6}\n")
set(no_card "{\"interval\":2,\"class\":2,\"lp_run\":false}\n")
file(WRITE ${WORK_DIR}/attainment_decisions.jsonl "${card}${no_card}")
execute_process(COMMAND ${REPORT} ${WORK_DIR}/attainment_good.jsonl
                        ${WORK_DIR}/attainment_decisions.jsonl
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "1 classes with budget data" OR
   NOT out MATCHES "\\| 1 \\| 4 \\| 2\\.500 \\|[^\n]* 1 \\|\n" OR
   NOT out MATCHES "- class 1: disk_wait=1\n" OR out MATCHES "\\| 2 \\|")
  message(FATAL_ERROR "good input with a decision log: exit ${rc}\n${out}${err}")
endif()

file(WRITE ${WORK_DIR}/attainment_bad_decisions.jsonl
     "{\"interval\":2,\"class\":-1,\"miss_card\":true}\n")
execute_process(COMMAND ${REPORT} ${WORK_DIR}/attainment_good.jsonl
                        ${WORK_DIR}/attainment_bad_decisions.jsonl
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR
   NOT err MATCHES "error: [^\n]*attainment_bad_decisions\\.jsonl:1: \"class\"")
  message(FATAL_ERROR "bad decision log: exit ${rc}\n${out}${err}")
endif()
