# Run a bench with --json and fail unless it exits 0 and the JSON file
# appears and holds one JSON object as util::JsonWriter writes it
# (json_object.cmake). A stale file from an earlier run is removed
# first, so only this run can satisfy it.
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
include("${CMAKE_CURRENT_LIST_DIR}/json_object.cmake")
