# Runs COMMAND (a ;-separated list) and passes only when it exits 0 and its
# standard output matches the regular expression REGEX.
#
#   cmake -DCOMMAND=<exe;arg;...> -DREGEX=<regex> -P expect_output.cmake
execute_process(COMMAND ${COMMAND}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit ${rc}:\n${out}${err}")
endif()
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}")
endif()
