# Fail unless avgraph, run on the tree at ROOT, writes topology.json
# and topology.dot into OUT byte-identical to ROOT/results/. Graph
# findings are avgraph.repo's to report; only a run that wrote no
# artifacts (exit status 2) fails here.
#
#   cmake -DAVGRAPH=<binary> -DROOT=<repo> -DOUT=<dir> \
#         -P topology_fresh.cmake
execute_process(COMMAND "${AVGRAPH}" --root "${ROOT}"
                        --json "${OUT}/topology.json"
                        --dot "${OUT}/topology.dot"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status MATCHES "^[01]$")
    message(FATAL_ERROR "${AVGRAPH} exited with status ${status}")
endif()
foreach(ext json dot)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${OUT}/topology.${ext}"
                            "${ROOT}/results/topology.${ext}"
                    RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR
                "results/topology.${ext} is stale: regenerate it with"
                " `cmake --build <build> --target topology`")
    endif()
endforeach()
