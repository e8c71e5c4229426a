# Runs one ccsched command and fails unless it exits with EXIT and its
# combined output matches REGEX.  Unlike WILL_FAIL, an abort (exit 134)
# does not pass.
#
#   cmake -DCCSCHED=<binary> -DARGS="lint|<file>" -DEXIT=1 -DREGEX=CCS-G009
#         -P expect_exit.cmake
#
# ARGS separates arguments with '|', so one argument may hold spaces.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CCSCHED}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit ${code}, expected ${EXIT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}'\n${out}${err}")
endif()
