# Two-process smoke for `mapp_cli serve`: feed a JSONL session over
# stdin (ping, a member-form predict, a raw predict_batch, stats,
# shutdown), then assert the service answered every request, exited 0
# on the shutdown op, and wrote an intact metrics sidecar; a removed
# serve flag must exit 2 as an unknown flag. Driven by ctest:
#   cmake -DMAPP_CLI=<path> -DWORK_DIR=<dir> -P serve_smoke.cmake

foreach(var MAPP_CLI WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "serve_smoke: -D${var}=... is required")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests "${WORK_DIR}/requests.jsonl")
set(responses "${WORK_DIR}/responses.jsonl")
set(metrics "${WORK_DIR}/metrics.json")

set(raw_app "{\"cpu_time\":0.5,\"gpu_time\":0.25,\"mix\":[10,10,10,10,10,10,10,10,20]}")
file(WRITE "${requests}"
     "{\"op\":\"ping\",\"id\":\"s1\"}\n"
     "{\"op\":\"predict\",\"id\":\"s2\",\"a\":\"SIFT@20\",\"b\":\"FAST@20\"}\n"
     "{\"op\":\"predict_batch\",\"id\":\"s3\",\"queries\":[{\"a\":${raw_app},\"b\":${raw_app},\"fairness\":0.5},{\"a\":${raw_app},\"b\":${raw_app},\"fairness\":0.9}]}\n"
     "{\"op\":\"stats\",\"id\":\"s4\"}\n"
     "{\"op\":\"shutdown\",\"id\":\"s5\"}\n")

execute_process(
    COMMAND "${MAPP_CLI}"
            "--metrics-out=${metrics}"
            serve --stdin
    INPUT_FILE "${requests}"
    OUTPUT_FILE "${responses}"
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    file(READ "${responses}" out)
    message(FATAL_ERROR
            "serve_smoke: serve exited ${rc}:\n${out}\n${err}")
endif()

file(READ "${responses}" out)

# Every request answered ok, none dropped on the drain path.
foreach(id s1 s2 s3 s4 s5)
    string(FIND "${out}" "\"id\":\"${id}\",\"ok\":true" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "serve_smoke: no ok response for ${id}:\n${out}\n${err}")
    endif()
endforeach()

# The predictions actually carry numbers.
string(FIND "${out}" "\"predicted_seconds\":" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR
            "serve_smoke: no predicted_seconds in:\n${out}")
endif()

# The batch answer is a two-element array.
string(REGEX MATCH "\"id\":\"s3\"[^\n]*\"predicted_seconds\":\\[[^]]+,[^]]+\\]" batch "${out}")
if(batch STREQUAL "")
    message(FATAL_ERROR
            "serve_smoke: predict_batch did not answer an array:\n${out}")
endif()

# The metrics sidecar survived shutdown and saw the serve counters.
if(NOT EXISTS "${metrics}")
    message(FATAL_ERROR "serve_smoke: no metrics sidecar at ${metrics}")
endif()
file(READ "${metrics}" metric_doc)
foreach(counter "serve.requests" "serve.predictions" "serve.batches")
    string(FIND "${metric_doc}" "${counter}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "serve_smoke: metrics sidecar is missing ${counter}:\n"
                "${metric_doc}")
    endif()
endforeach()

# --linger-ms was removed with the linger window; it is an unknown flag.
execute_process(
    COMMAND "${MAPP_CLI}" serve --stdin --linger-ms=1
    INPUT_FILE "${requests}"
    OUTPUT_QUIET
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "serve_smoke: --linger-ms exited ${rc}, not 2:\n${err}")
endif()
