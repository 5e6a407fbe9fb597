# Drives every tool's command line through the shared flag table
# (tools/cli/flags.h), for the cli_flags_smoke ctest:
#   1. `--help` exits 0 and lists every flag of the tool;
#   2. malformed, out-of-range and missing flag values exit exactly 2 with
#      the flag named on stderr, never an abort;
#   3. rbcast_node's overrides are honoured when given (`--seed 0` too) and
#      leave the config's values alone when not.
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_help tool)
  execute_process(COMMAND ${${tool}} --help
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tool} --help exited ${rc}:\n${out}${err}")
  endif()
  foreach(flag IN LISTS ARGN)
    string(FIND "${out}" "${flag}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${tool} --help does not list ${flag}:\n${out}")
    endif()
  endforeach()
endfunction()

expect_help(RBCAST_SIM --clusters --hosts --shape --arpanet --loss --dup
  --partition-at --partition-heal --flap --protocol --messages --interval-ms
  --arrivals --burst --dot --metrics-csv --trace-out --chrome-trace
  --batch-flush-ms --sample-period-ms --seed --deadline --chaos-spec
  --chaos-seed --csv --verbose --help)
expect_help(RBCAST_NODE --config --host --all-hosts --trace-out --run-s
  --seed --admin-port --admin-port-file --linger-s --help)
expect_help(RBCAST_CHECK --hosts --clusters --broadcasts --inflight --depth
  --max-states --walks --liveness --steps --seed --forge --determinism-check
  --batch --help)
expect_help(RBCAST_CHAOS --spec --runs --seed --out --shrink-attempts
  --no-shrink --print-spec --help)
expect_help(RBCAST_TRACE TRACE.jsonl --summary --timeline --lineage
  --convergence --compare --help)
expect_help(RBCAST_TOP ENDPOINT --endpoints-file --interval-s --timeout-ms
  --once --json --help)
expect_help(RBCAST_ANALYZE REPO --baseline --update-baseline --json --dot
  --quiet --help)
expect_help(RBCAST_LINT REPO --help)

# Each case: tool, the flag stderr must name, then the arguments.
function(expect_usage_error tool flag)
  execute_process(COMMAND ${${tool}} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "${tool} ${ARGN} exited ${rc}, expected 2:\n${out}${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${tool} ${ARGN}: stderr does not name ${flag}:\n${err}")
  endif()
endfunction()

set(config ${WORK_DIR}/node_seed9.json)
expect_usage_error(RBCAST_TRACE --timeline --timeline h1 T.jsonl)
expect_usage_error(RBCAST_SIM --clusters --clusters 2x)
expect_usage_error(RBCAST_SIM --loss --loss 0.x)
expect_usage_error(RBCAST_SIM --loss --loss -1)
expect_usage_error(RBCAST_SIM --dup --dup 1.5)
expect_usage_error(RBCAST_SIM --burst --burst 0)
expect_usage_error(RBCAST_SIM --interval-ms --interval-ms -5)
expect_usage_error(RBCAST_CHECK --hosts --hosts three)
expect_usage_error(RBCAST_CHECK --hosts --hosts 0)
expect_usage_error(RBCAST_CHECK --clusters --hosts 3 --clusters 0,1,x)
expect_usage_error(RBCAST_CHECK --forge --forge)
expect_usage_error(RBCAST_CHAOS --runs --runs 1e3)
expect_usage_error(RBCAST_TOP --interval-s --interval-s abc 1234)
expect_usage_error(RBCAST_NODE --admin-port --config ${config} --all-hosts
  --admin-port 70000)
expect_usage_error(RBCAST_NODE --run-s --config ${config} --all-hosts
  --run-s -1)
expect_usage_error(RBCAST_NODE --linger-s --config ${config} --all-hosts
  --linger-s -1)
expect_usage_error(RBCAST_ANALYZE --bogus --bogus)

# rbcast_node: a given override wins even when it is 0; an absent one
# keeps the config's value. One host and no messages converge at once.
file(WRITE ${config} [=[
{"hosts": [{"id": 0, "addr": "127.0.0.1", "port": 0}],
 "source": 0, "seed": 9, "messages": 0, "run_s": 5}
]=])
function(expect_node_seed expected)
  execute_process(
    COMMAND ${RBCAST_NODE} --config ${config} --all-hosts --admin-port -1
            ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "seed: ${expected}\n")
    message(FATAL_ERROR "rbcast_node ${ARGN} exited ${rc}, expected 0 and "
      "seed ${expected}:\n${out}${err}")
  endif()
endfunction()
expect_node_seed(0 --seed 0)
expect_node_seed(9)
message(STATUS "cli flags smoke passed")
