# Run `${CMD} ${ARGS}` (ARGS: one space-separated string) and require the
# command-line refusal: exit status 2 and a stderr matching ${STDERR}.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if (NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}: ${out}${err}")
endif()
if (NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR "expected '${STDERR}' on stderr, got: ${out}${err}")
endif()
message(STATUS "${err}")
