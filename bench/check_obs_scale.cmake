# Runs the bench_obs_scale binary BENCH with --quick in WORKDIR, then
# tools/check_obs_scale.py (CHECK, run by PYTHON) on the obs_scale.csv
# it writes. Either one failing fails the test.
#
#   cmake -DBENCH=build/bench/bench_obs_scale -DPYTHON=python3 \
#         -DCHECK=tools/check_obs_scale.py -DWORKDIR=/tmp/obs_scale \
#         -P check_obs_scale.cmake
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(COMMAND ${BENCH} --quick
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --quick exited ${rc}")
endif()
execute_process(COMMAND ${PYTHON} ${CHECK} obs_scale.csv
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${CHECK} exited ${rc}")
endif()
