# Replays one well-formed 4-node chaos repro and seven one-line edits of it
# through tools/chaos_fuzz. The good file must replay clean; each bad one
# must exit 1 with an "error: <file>:<line>:" message instead of aborting
# in the fault injector, the system or the harness.
#
#   cmake -DFUZZ=<chaos_fuzz binary> -DWORK_DIR=<output dir> \
#         -P chaos_replay_test.cmake

set(header "# chaos schedule v1\nseed 1\n")
set(nodes "nodes 4\n")
set(horizon "horizon_ms 60000\n")
set(event "corrupt 32269.082215928396 3 2 16062342724189915073\n")
file(WRITE ${WORK_DIR}/chaos_replay_good.txt
     "${header}${nodes}${horizon}${event}")
execute_process(COMMAND ${FUZZ} --replay=${WORK_DIR}/chaos_replay_good.txt
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "replay seed=1: clean \\(1 events\\)")
  message(FATAL_ERROR "good repro: exit ${rc}\n${out}${err}")
endif()

# Each bad file, and the line its error must name.
set(bad_files
    "${header}${nodes}${horizon}crash 100 7\n"
    "${header}${nodes}${horizon}corrupt 100 9 1 1\n"
    "${header}nodes 0\n${horizon}${event}"
    "${header}${nodes}${horizon}degrade 100 1 -5\n"
    "${header}${nodes}horizon_ms 1e300\n${event}"
    "${header}${nodes}${horizon}goal 100 5 2.0\n"
    "${header}${nodes}${horizon}goal 100 1 -2.0\n")
set(bad_lines 5 5 3 5 4 5 5)
foreach(i RANGE 6)
  list(GET bad_files ${i} text)
  list(GET bad_lines ${i} line)
  set(file ${WORK_DIR}/chaos_replay_bad${i}.txt)
  file(WRITE ${file} "${text}")
  execute_process(COMMAND ${FUZZ} --replay=${file}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR
     NOT err MATCHES "error: [^\n]*chaos_replay_bad${i}\\.txt:${line}: ")
    message(FATAL_ERROR "bad repro ${i}: exit ${rc}\n${text}\n${out}${err}")
  endif()
endforeach()
