# Golden check for the revet-lint JSON output: runs `LINT --all --json`
# and compares its stdout byte for byte with GOLDEN.
#
#   cmake -DLINT=<example_revet_lint> -DGOLDEN=<revet_lint_all.jsonl> \
#         -DACTUAL=<output file> -P lint_golden.cmake
#
# The golden pins every app's compiled graph as the analyses see it
# (diagnostics, validated pass count, cycle and park counts). A change
# that alters compiled graphs on purpose regenerates it with the
# command printed on mismatch and says why.

foreach(var LINT GOLDEN ACTUAL)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "lint_golden.cmake: -D${var}=... is required")
    endif()
endforeach()

execute_process(COMMAND "${LINT}" --all --json
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE lint_rc)
if(NOT lint_rc EQUAL 0)
    message(FATAL_ERROR "revet-lint --all --json exited with ${lint_rc}; "
                        "output in ${ACTUAL}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "revet-lint --all --json differs from the golden.\n"
        "  see the difference: diff -u ${GOLDEN} ${ACTUAL}\n"
        "  regenerate (only for an intended compiled-graph change):\n"
        "    ${LINT} --all --json > ${GOLDEN}")
endif()
message(STATUS "revet-lint --all --json matches ${GOLDEN}")
