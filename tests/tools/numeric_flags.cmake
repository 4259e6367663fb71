# Malformed or out-of-range numeric flags are usage errors: udp_group_call
# and ugrpcstat must exit 2 and name the flag, where atoi/atof once wrapped,
# truncated or dropped trailing garbage (--telemetry-port 70000 served on
# 4464, --calls 2x ran 2 calls, --port 80x connected to port 80).  Both
# parse their flags before forking or connecting, so no server starts.  Run
# as  cmake -DEXAMPLE=<udp_group_call> -DUGRPCSTAT=<ugrpcstat> -P numeric_flags.cmake
set(example_cases
    "--telemetry-port|70000" "--calls|2x" "--calls|-1" "--calls"
    "--stall-bound-us|9223372036854775808" "--servers|0" "--servers|65"
    "--timeout-sec| 5" "--serve-sec|1e3")
set(ugrpcstat_cases
    "--port|80x|--json" "--port|70000" "--port|1|--count|2x"
    "--port|1|--watch|0.5s" "--port|1|--watch|nan" "--port|1|--watch|-1")
foreach(tool IN ITEMS example ugrpcstat)
  if(tool STREQUAL "example")
    set(binary "${EXAMPLE}")
  else()
    set(binary "${UGRPCSTAT}")
  endif()
  foreach(case IN LISTS ${tool}_cases)
    string(REPLACE "|" ";" args "${case}")
    execute_process(COMMAND "${binary}" ${args} RESULT_VARIABLE rc ERROR_VARIABLE err
                    OUTPUT_QUIET TIMEOUT 20)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "invalid value")
      message(FATAL_ERROR "${binary} ${args}: exit ${rc}, stderr '${err}'; "
                          "expected exit 2 and 'invalid value'")
    endif()
  endforeach()
endforeach()
