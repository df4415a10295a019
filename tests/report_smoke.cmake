# End-to-end smoke for `mapp_cli report`: run one real prediction with
# every observability sidecar enabled, render the report from those
# sidecars, and assert the required sections came out. Driven by ctest:
#   cmake -DMAPP_CLI=<path> -DWORK_DIR=<dir> -P report_smoke.cmake

foreach(var MAPP_CLI WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "report_smoke: -D${var}=... is required")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(metrics "${WORK_DIR}/metrics.json")
set(predictions "${WORK_DIR}/predictions.jsonl")
set(trace "${WORK_DIR}/trace.json")

execute_process(
    COMMAND "${MAPP_CLI}"
            "--metrics-out=${metrics}"
            "--predictions-out=${predictions}"
            "--trace-out=${trace}"
            predict SIFT@20 FAST@20
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "report_smoke: predict failed (${rc}):\n${out}\n${err}")
endif()

foreach(sidecar metrics predictions trace)
    if(NOT EXISTS "${${sidecar}}")
        message(FATAL_ERROR
                "report_smoke: predict left no ${sidecar} sidecar at "
                "${${sidecar}}")
    endif()
endforeach()

execute_process(
    COMMAND "${MAPP_CLI}" report
            "${metrics}" "${predictions}" "${trace}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE report
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "report_smoke: report failed (${rc}):\n${report}\n${err}")
endif()

foreach(section
        "# MAPP run report"
        "- peak RSS: "
        "## Phase tree"
        "## Latency percentiles"
        "## Prediction quality"
        "## Top-error predictions"
        "## Drift flags"
        "## Counters")
    string(FIND "${report}" "${section}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "report_smoke: report is missing '${section}':\n"
                "${report}")
    endif()
endforeach()

# The provenance flowed end to end: the report must carry at least one
# audited prediction row (the table header is only emitted with rows).
string(FIND "${report}" "| seq |" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR
            "report_smoke: no audited predictions in the report:\n"
            "${report}")
endif()
