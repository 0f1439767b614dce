# Runs chase_cli once and checks the result, for the
# ChaseCliTest cases in CMakeLists.txt:
#
#   cmake -DCLI=path/to/chase_cli -DARGS='a|b' -DEXIT=2 -DEXPECT='x|y'
#         -P cli_case.cmake
#
# Fails unless the exit code is EXIT and every '|'-separated EXPECT
# string appears verbatim in stdout or stderr.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(output "${out}${err}")
if(NOT code STREQUAL EXIT)
  message(FATAL_ERROR "exit code ${code}, expected ${EXIT}:\n${output}")
endif()
string(REPLACE "|" ";" expected "${EXPECT}")
foreach(item IN LISTS expected)
  string(FIND "${output}" "${item}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "output lacks '${item}':\n${output}")
  endif()
endforeach()
