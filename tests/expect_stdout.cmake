# Run `${CMD} ${ARGS}` (ARGS: an optional space-separated string) and
# require exit status 0 and:
#  - when EXPECT is set, a stdout equal byte for byte to the file
#    ${EXPECT}: how the examples keep their recorded outputs
#    (results/example_*.txt) from drifting;
#  - when STDOUT_MATCH is set, a stdout matching that regex: how the
#    --help tests check for the usage;
#  - when OUTPUT is set, the file ${OUTPUT} the command writes equal
#    byte for byte to ${OUTPUT_EXPECT}: how the --stats-json goldens
#    (results/stats_*.json) are pinned.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if (DEFINED OUTPUT)
    file(REMOVE ${OUTPUT})
endif()
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if (NOT rc EQUAL 0)
    message(FATAL_ERROR "expected exit 0, got ${rc}: ${out}${err}")
endif()
if (DEFINED EXPECT)
    file(READ ${EXPECT} want)
    if (NOT out STREQUAL want)
        message(FATAL_ERROR "stdout differs from ${EXPECT}; got:\n${out}")
    endif()
endif()
if (DEFINED STDOUT_MATCH AND NOT out MATCHES "${STDOUT_MATCH}")
    message(FATAL_ERROR "stdout does not match '${STDOUT_MATCH}':\n${out}")
endif()
if (DEFINED OUTPUT)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${OUTPUT} ${OUTPUT_EXPECT}
                    RESULT_VARIABLE differs)
    if (differs)
        message(FATAL_ERROR "${OUTPUT} differs from ${OUTPUT_EXPECT}")
    endif()
endif()
