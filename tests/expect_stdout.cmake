# Run ${CMD} and require exit status 0 and a stdout equal, byte for
# byte, to the file ${EXPECT}: how the examples keep their recorded
# outputs (results/example_*.txt) from drifting.
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if (NOT rc EQUAL 0)
    message(FATAL_ERROR "expected exit 0, got ${rc}: ${out}${err}")
endif()
file(READ ${EXPECT} want)
if (NOT out STREQUAL want)
    message(FATAL_ERROR "stdout differs from ${EXPECT}; got:\n${out}")
endif()
