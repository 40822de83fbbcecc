# Run a bench with --json and fail unless it exits 0 and the JSON file
# appears, non-empty and starting with '{'. A stale file from an
# earlier run is removed first, so only this run can satisfy it.
#
#   cmake -DBENCH=<binary> "-DARGS=<flags>" -DJSON=<path> \
#         -P smoke_json.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${JSON}")
execute_process(COMMAND "${BENCH}" ${args} --json "${JSON}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
if(NOT EXISTS "${JSON}")
    message(FATAL_ERROR "${BENCH} --json ${JSON} wrote no file")
endif()
file(READ "${JSON}" text)
string(SUBSTRING "${text}" 0 1 first)
if(NOT first STREQUAL "{")
    message(FATAL_ERROR "${JSON} does not hold a JSON object")
endif()
