# Runs `${BIN} ${FLAG}` and fails unless it exits 2 with ${EXPECT} on
# stderr.
#
#   cmake -DBIN=<harness> -DFLAG=<--flag=value> -DEXPECT=<text> -P expect_flag_error.cmake
execute_process(COMMAND ${BIN} ${FLAG}
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "${EXPECT}" at)
if(NOT code STREQUAL "2" OR at EQUAL -1)
  message(FATAL_ERROR "${FLAG}: want exit 2 and \"${EXPECT}\"; got exit ${code}: ${err}")
endif()
