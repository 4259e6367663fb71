# Flight-recorder smoke through the operator tools: udp_group_call trips its
# stall watchdog (forced retransmission, 10 ms bound) into a fresh flight
# directory, `ugrpcstat --check-flight` must replay the dump clean, and
# `ugrpcstat --perfetto` must render it into a document that
# tools/check_perfetto.py --partial accepts (that step is skipped when
# python3 is missing).  Run as
#   cmake -DEXAMPLE=<udp_group_call> -DUGRPCSTAT=<ugrpcstat>
#         -DCHECK_PERFETTO=<check_perfetto.py> -DDIR=<work dir> -P flight_smoke.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${EXAMPLE}" --servers 1 --calls 3 --timeout-sec 60 --force-retransmit
                        --flight-dir "${DIR}" --stall-bound-us 10000
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "udp_group_call exited with ${rc}")
endif()
file(GLOB dumps LIST_DIRECTORIES true "${DIR}/flight-*")
if(NOT dumps)
  message(FATAL_ERROR "no flight dump under ${DIR}")
endif()
list(GET dumps 0 dump)

execute_process(COMMAND "${UGRPCSTAT}" --check-flight "${dump}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ugrpcstat --check-flight ${dump} exited with ${rc}")
endif()

find_program(PYTHON3 python3)
if(NOT PYTHON3)
  message(STATUS "python3 not found: skipping the Perfetto schema check")
else()
  execute_process(COMMAND "${UGRPCSTAT}" --perfetto "${dump}"
                  COMMAND "${PYTHON3}" "${CHECK_PERFETTO}" - --partial
                  RESULTS_VARIABLE rcs)
  if(NOT rcs STREQUAL "0;0")
    message(FATAL_ERROR "ugrpcstat --perfetto | check_perfetto.py --partial exited with ${rcs}")
  endif()
endif()
file(REMOVE_RECURSE "${DIR}")
