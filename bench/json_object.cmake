# Fail unless the file ${JSON} holds one JSON object laid out as
# util::JsonWriter writes a block object: "{" on the first line, "}"
# alone on the last, a newline after it, and every line between
# indented. CMake's parser (3.19+) also checks the syntax, but it
# accepts bytes after the root object ('{"a": 1} x'); the layout
# check rejects them. Before 3.19 only the layout is checked.
#
#   cmake -DJSON=<path> -P json_object.cmake
#
# smoke_json.cmake includes this after running its bench.
if(NOT EXISTS "${JSON}")
    message(FATAL_ERROR "${JSON}: no such file")
endif()
file(READ "${JSON}" text)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    string(JSON type ERROR_VARIABLE error TYPE "${text}")
    if(error)
        message(FATAL_ERROR "${JSON} is not valid JSON: ${error}")
    endif()
    if(NOT type STREQUAL "OBJECT")
        message(FATAL_ERROR "${JSON} does not hold a JSON object")
    endif()
endif()
set(layout_ok FALSE)
if(text STREQUAL "{\n}\n")
    set(layout_ok TRUE)
else()
    string(LENGTH "${text}" length)
    if(length GREATER 5)
        string(SUBSTRING "${text}" 0 2 head)
        math(EXPR tail_at "${length} - 3")
        string(SUBSTRING "${text}" ${tail_at} 3 tail)
        math(EXPR body_length "${tail_at} - 2")
        string(SUBSTRING "${text}" 2 ${body_length} body)
        if(head STREQUAL "{\n" AND tail STREQUAL "\n}\n" AND
           body MATCHES "^ " AND NOT body MATCHES "\n[^ ]")
            set(layout_ok TRUE)
        endif()
    endif()
endif()
if(NOT layout_ok)
    message(FATAL_ERROR "${JSON} is not one JSON object as JsonWriter "
                        "writes it: bytes follow the root object, or "
                        "its layout is not JsonWriter's")
endif()
