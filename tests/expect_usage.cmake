# Runs CMD with ARGS ('|'-separated) and passes only when it exits nonzero
# and prints its usage text: the check that a CLI refuses a malformed flag
# value instead of running with a misread one.
#
#   cmake -DCMD=<binary> "-DARGS=--seeds|abc" -P expect_usage.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a nonzero exit, got 0:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "usage: ")
  message(FATAL_ERROR "exit ${rc} without the usage text:\n${out}${err}")
endif()
