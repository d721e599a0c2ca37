# Runs a bench harness and checks that it exits 0 and prints EXPECT.
#   cmake -DHARNESS=<exe> "-DARGS=<space-separated args>" "-DEXPECT=<text>"
#         -P smoke_check.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${HARNESS} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} ${ARGS} exited with ${rc}")
endif()
string(FIND "${out}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${HARNESS} ${ARGS} did not print \"${EXPECT}\"")
endif()
