# Runs COMMAND (a ;-separated list) and passes only when it exits non-zero
# and its combined output contains the literal text MESSAGE.
#
#   cmake -DCOMMAND=<exe;arg;...> -DMESSAGE=<text> -P expect_failure.cmake
execute_process(COMMAND ${COMMAND}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a failure, exited 0:\n${out}")
endif()
string(FIND "${out}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "exit ${rc} without '${MESSAGE}':\n${out}")
endif()
