# Empties WORKDIR and runs the bench binary BENCH there with the
# space-separated BENCH_ARGS; then, when CHECK is given, runs CHECK (by
# PYTHON) on the file OUTPUT the bench wrote there. Either one failing
# fails the test. Without CHECK the script is a fixture setup: later
# tests read what the bench wrote.
#
#   cmake -DBENCH=build/bench/bench_obs_scale -DBENCH_ARGS=--quick \
#         -DPYTHON=python3 -DCHECK=tools/check_obs_scale.py \
#         -DOUTPUT=obs_scale.csv -DWORKDIR=/tmp/obs_scale \
#         -P run_bench.cmake
#   cmake -DBENCH=build/bench/bench_fig06_tcp_rx \
#         "-DBENCH_ARGS=--trace --sample-us 1000" -DWORKDIR=/tmp/fig06 \
#         -P run_bench.cmake
separate_arguments(bench_args UNIX_COMMAND "${BENCH_ARGS}")
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(COMMAND ${BENCH} ${bench_args}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${BENCH_ARGS} exited ${rc}")
endif()
if(NOT CHECK)
    return()
endif()
execute_process(COMMAND ${PYTHON} ${CHECK} ${OUTPUT}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${CHECK} exited ${rc}")
endif()
