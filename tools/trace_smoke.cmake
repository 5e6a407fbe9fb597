# End-to-end trace smoke driven by the trace_cli_smoke ctest: run a small
# traced scenario through rbcast_sim, exercise every rbcast_trace query
# mode over the resulting JSONL file, and check that the Chrome export is
# one valid JSON document — by util::parse_json (JSON_CHECK) and, when
# PYTHON is set, by Python's json.load.
set(trace_file ${WORK_DIR}/trace_smoke.jsonl)
set(chrome_file ${WORK_DIR}/trace_smoke.chrome.json)

execute_process(
  COMMAND ${RBCAST_SIM} --clusters 2 --hosts 2 --messages 5 --seed 3
          --trace-out ${trace_file} --chrome-trace ${chrome_file}
          --sample-period-ms 500
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rbcast_sim traced run failed (${rc}):\n${out}${err}")
endif()
if(NOT out MATCHES "manifest: seed=3")
  message(FATAL_ERROR "rbcast_sim stdout lacks the run manifest:\n${out}")
endif()

foreach(mode_args IN ITEMS "--summary" "--timeline;1" "--lineage;2"
                           "--convergence")
  execute_process(
    COMMAND ${RBCAST_TRACE} ${mode_args} ${trace_file}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "rbcast_trace ${mode_args} failed (${rc}):\n${out}${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${JSON_CHECK} ${chrome_file}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "Chrome export is not valid JSON (${rc}):\n${out}${err}")
endif()
if(PYTHON)
  execute_process(
    COMMAND ${PYTHON} -c "import json, sys; json.load(open(sys.argv[1]))"
            ${chrome_file}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "python json.load rejects the Chrome export (${rc}):\n${out}${err}")
  endif()
endif()
message(STATUS "trace smoke passed: ${trace_file}")
