# Drives the two rbcast_check commands README advertises: a bounded BFS
# over the shipping handlers is clean (exit 0), and forged DATA without
# source authentication is caught (exit exactly 1, "VIOLATION of I2").
# Usage errors are covered by cli_flags_smoke.cmake.
execute_process(
  COMMAND ${RBCAST_CHECK} --hosts 3 --depth 7
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rbcast_check --hosts 3 --depth 7 exited ${rc}:\n${out}${err}")
endif()

execute_process(
  COMMAND ${RBCAST_CHECK} --forge noauth --walks 500
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT out MATCHES "VIOLATION of I2")
  message(FATAL_ERROR
    "rbcast_check --forge noauth --walks 500 exited ${rc}, expected 1 and "
    "an I2 violation:\n${out}${err}")
endif()
