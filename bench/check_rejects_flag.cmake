# Runs the bench binary BENCH with arguments no bench accepts: an
# unknown flag, `--sample-us` without a value, with a non-number and
# with zero. Each must exit 2, print the usage line on stderr and run
# nothing (empty stdout).
#
#   cmake -DBENCH=build/bench/bench_fig02_trends -P check_rejects_flag.cmake
foreach(args "--bogus" "--sample-us" "--sample-us;abc" "--sample-us;0")
    execute_process(COMMAND ${BENCH} ${args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "${BENCH} ${args}: expected exit 2, got ${rc}")
    endif()
    if(NOT err MATCHES
            "usage: [^\n]* \\[--trace\\] \\[--metrics\\] \\[--sample-us N\\] \\[--quick\\]")
        message(FATAL_ERROR "${BENCH} ${args}: no usage line: ${err}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "${BENCH} ${args}: ran anyway: ${out}")
    endif()
endforeach()
