# CTest driver for a refused command-line option (invoked via cmake -P).
#
# Runs TOOL with ARGS (a ;-separated list) and requires exit status 2, the
# usage status, rather than merely a failure: an abort (134) or a crash
# must not pass.  With -DSOCKET=PATH the run must also leave no file at
# PATH, so a daemon that refuses its options never binds its socket.

if(SOCKET)
  file(REMOVE "${SOCKET}")
endif()
execute_process(COMMAND "${TOOL}" ${ARGS}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${TOOL} ${ARGS} exited '${rc}', not 2:\n${err}")
endif()
if(SOCKET AND EXISTS "${SOCKET}")
  file(REMOVE "${SOCKET}")
  message(FATAL_ERROR "${TOOL} ${ARGS} left its socket ${SOCKET} behind")
endif()
