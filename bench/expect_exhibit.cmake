# Runs `${BIN} --scale=0.01` and fails unless it exits 0 with ${EXPECT} (the
# exhibit's banner) on stdout.
#
#   cmake -DBIN=<exhibit> -DEXPECT=<banner> -P expect_exhibit.cmake
execute_process(COMMAND ${BIN} --scale=0.01
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${out}" "${EXPECT}" at)
if(NOT code STREQUAL "0" OR at EQUAL -1)
  message(FATAL_ERROR "want exit 0 and \"${EXPECT}\"; got exit ${code}: ${err}")
endif()
