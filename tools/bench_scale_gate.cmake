# Runs bench_scale --json and checks that its virtual-time tables still
# hash to the digest committed in BENCH_scale.json. Only the digest is
# gated here: the wall-clock rows depend on the machine (and on sanitizer
# builds), so the CI bench-smoke job gates those against the same file
# with a loose bench_compare.py threshold.
set(current ${WORK_DIR}/bench_scale_current.json)

execute_process(
  COMMAND ${BENCH} --json
  OUTPUT_FILE ${current}
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_scale --json failed (${rc}):\n${err}")
endif()

file(READ ${BASELINE} baseline_json)
file(READ ${current} current_json)
string(JSON expected GET "${baseline_json}" context table_digest)
string(JSON actual GET "${current_json}" context table_digest)
if(NOT expected STREQUAL actual)
  message(FATAL_ERROR
    "E15 virtual-time tables drifted: digest ${actual}, BENCH_scale.json "
    "has ${expected} — if intentional, regenerate with: "
    "./build/bench/bench_scale --json > BENCH_scale.json")
endif()
message(STATUS "bench_scale digest ${actual} matches BENCH_scale.json")
