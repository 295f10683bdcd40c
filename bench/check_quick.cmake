# Runs the bench binary BENCH with --quick in WORKDIR, then CHECK (run
# by PYTHON) on the file OUTPUT the bench writes there. Either one
# failing fails the test.
#
#   cmake -DBENCH=build/bench/bench_obs_scale -DPYTHON=python3 \
#         -DCHECK=tools/check_obs_scale.py -DOUTPUT=obs_scale.csv \
#         -DWORKDIR=/tmp/obs_scale -P check_quick.cmake
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(COMMAND ${BENCH} --quick
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --quick exited ${rc}")
endif()
execute_process(COMMAND ${PYTHON} ${CHECK} ${OUTPUT}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${CHECK} exited ${rc}")
endif()
