# Run a bench with --json and fail unless it exits 0 and the JSON file
# appears and parses as a JSON object. A stale file from an earlier
# run is removed first, so only this run can satisfy it. CMake before
# 3.19 has no JSON parser; there the file need only start with '{'.
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
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    string(JSON type ERROR_VARIABLE error TYPE "${text}")
    if(error)
        message(FATAL_ERROR "${JSON} is not valid JSON: ${error}")
    endif()
else()
    string(SUBSTRING "${text}" 0 1 first)
    set(type "")
    if(first STREQUAL "{")
        set(type OBJECT)
    endif()
endif()
if(NOT type STREQUAL "OBJECT")
    message(FATAL_ERROR "${JSON} does not hold a JSON object")
endif()
