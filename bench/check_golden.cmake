# Runs one paper bench and compares its stdout byte for byte with the
# committed golden.  Invoked by the `paper.*` ctest cases:
#   cmake -DBENCH=<binary> -DGOLDEN=<baselines/name.txt> -DWORKDIR=<dir>
#         -P check_golden.cmake
# The bench runs in WORKDIR, where it also leaves its BENCH_*.json; on a
# mismatch the new stdout is kept there as stdout.txt and the diff printed.
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${WORKDIR}/stdout.txt"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${WORKDIR}/stdout.txt"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" "${WORKDIR}/stdout.txt")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; a change that moves "
                      "a paper number re-records the golden and says why")
endif()
