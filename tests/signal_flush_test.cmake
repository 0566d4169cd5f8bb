# Stops a long tools/memgoal_sim run with SIGTERM and checks that its
# signal handler flushed the observability sinks: the run must end by the
# signal (timeout's exit 124), and the decision log, attainment JSONL and
# metrics JSONL must each be non-empty and hold only complete one-line
# {...} records.
#
#   cmake -DSIM=<memgoal_sim binary> -DSCENARIO_DIR=<tools/scenarios> \
#         -DWORK_DIR=<output dir> -P signal_flush_test.cmake

set(flags decision-log attainment-out obs-jsonl)
set(args)
foreach(flag ${flags})
  set(path ${WORK_DIR}/signal_flush_${flag}.jsonl)
  file(REMOVE ${path})
  list(APPEND args --${flag}=${path})
endforeach()
execute_process(
  COMMAND timeout -s TERM 2 ${SIM} ${SCENARIO_DIR}/base.conf
          intervals=1000000 ${args}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 124)
  message(FATAL_ERROR "expected the run to end by SIGTERM (exit 124), "
                      "got ${rc}\n${err}")
endif()

foreach(flag ${flags})
  set(path ${WORK_DIR}/signal_flush_${flag}.jsonl)
  if(NOT EXISTS ${path})
    message(FATAL_ERROR "--${flag}: ${path} was not written")
  endif()
  file(READ ${path} text)
  string(LENGTH "${text}" size)
  if(size LESS 3)
    message(FATAL_ERROR "--${flag}: ${path} holds no record")
  endif()
  # Every line is one complete record when the text starts with "{", ends
  # with "}\n", and each newline but the last sits between "}" and "{".
  string(SUBSTRING "${text}" 0 1 head)
  math(EXPR tail_at "${size} - 2")
  string(SUBSTRING "${text}" ${tail_at} 2 tail)
  string(REPLACE "\n" "" joined "${text}")
  string(LENGTH "${joined}" joined_size)
  math(EXPR lines "${size} - ${joined_size}")
  string(REPLACE "}\n{" "" unjoined "${text}")
  string(LENGTH "${unjoined}" unjoined_size)
  math(EXPR joints "(${size} - ${unjoined_size}) / 3")
  math(EXPR expected_joints "${lines} - 1")
  if(NOT head STREQUAL "{" OR NOT tail STREQUAL "}\n" OR
     NOT joints EQUAL expected_joints)
    message(FATAL_ERROR "--${flag}: ${path} is not ${lines} complete records")
  endif()
  message(STATUS "--${flag}: ${lines} records")
endforeach()
