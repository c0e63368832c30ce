# Run `${CMD} --replay ${SPEC}` and require the malformed-spec refusal:
# exit status 2 and "bad replay spec" on stderr.
execute_process(COMMAND ${CMD} --replay ${SPEC}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if (NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}: ${out}${err}")
endif()
if (NOT err MATCHES "bad replay spec")
    message(FATAL_ERROR "expected 'bad replay spec', got: ${out}${err}")
endif()
message(STATUS "${err}")
