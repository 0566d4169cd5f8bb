# Writes OUTPUT, a header defining MEMGOAL_GIT_DESCRIBE as the source tree's
# `git describe --always --dirty --tags` ("unknown" without git or outside a
# checkout), and leaves the file untouched when its text would not change.
#
#   cmake -DGIT=<git> -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P git_describe.cmake
set(describe "unknown")
if(GIT)
  execute_process(
    COMMAND ${GIT} -C ${SOURCE_DIR} describe --always --dirty --tags
    RESULT_VARIABLE result
    OUTPUT_VARIABLE output
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
  if(result EQUAL 0 AND NOT output STREQUAL "")
    set(describe "${output}")
  endif()
endif()
set(text "#define MEMGOAL_GIT_DESCRIBE \"${describe}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUTPUT} "${text}")
endif()
