# udp_group_call's trace files through the operator tools, with a forced
# retransmission.  MODE=flight trips the stall watchdog (10 ms bound) into
# flight dumps; MODE=trace runs 2 servers with --trace-dir, so each of the 3
# processes writes its own file.  Every file must replay clean through
# `ugrpcstat --check-flight` against the Expect its header records, and
# `ugrpcstat --perfetto` must render them into a document that
# tools/check_perfetto.py accepts: the first dump with --partial (it is taken
# mid-run), the 3 process files with 3 processes and a flagged send; and
# the first dump's metrics.prom must pass tools/check_prom.py with the
# families CI's telemetry-smoke job requires (both skipped without python3).
# Run as
#   cmake -DEXAMPLE=<udp_group_call> -DUGRPCSTAT=<ugrpcstat> -DMODE=flight|trace
#         -DCHECK_PERFETTO=<check_perfetto.py> -DCHECK_PROM=<check_prom.py>
#         -DDIR=<work dir> -P flight_smoke.cmake
file(REMOVE_RECURSE "${DIR}")
if(MODE STREQUAL "flight")
  set(run --servers 1 --calls 3 --flight-dir "${DIR}" --stall-bound-us 10000)
  set(pattern "${DIR}/flight-*/trace.bin")
  set(render_flags --partial)
else()
  set(run --servers 2 --calls 5 --trace-dir "${DIR}")
  set(pattern "${DIR}/*")
  set(render_flags --min-processes 3 --require-flagged)
endif()
execute_process(COMMAND "${EXAMPLE}" ${run} --timeout-sec 60 --force-retransmit
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "udp_group_call exited with ${rc}")
endif()
file(GLOB traces "${pattern}")
list(LENGTH traces count)
if(count EQUAL 0 OR (MODE STREQUAL "trace" AND NOT count EQUAL 3))
  message(FATAL_ERROR "found ${count} trace file(s) matching ${pattern}")
endif()
foreach(trace IN LISTS traces)
  execute_process(COMMAND "${UGRPCSTAT}" --check-flight "${trace}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ugrpcstat --check-flight ${trace} exited with ${rc}")
  endif()
endforeach()
if(MODE STREQUAL "flight")
  list(GET traces 0 traces)  # dumps of one site repeat its span ids
endif()

find_program(PYTHON3 python3)
if(NOT PYTHON3)
  message(STATUS "python3 not found: skipping the Perfetto schema and exposition checks")
else()
  execute_process(COMMAND "${UGRPCSTAT}" --perfetto ${traces}
                  COMMAND "${PYTHON3}" "${CHECK_PERFETTO}" - ${render_flags}
                  RESULTS_VARIABLE rcs)
  if(NOT rcs STREQUAL "0;0")
    message(FATAL_ERROR "ugrpcstat --perfetto | check_perfetto.py exited with ${rcs}")
  endif()
  if(MODE STREQUAL "flight")
    get_filename_component(dump "${traces}" DIRECTORY)
    execute_process(COMMAND "${PYTHON3}" "${CHECK_PROM}" "${dump}/metrics.prom"
                            --require-prefix ugrpc_
                            --require ugrpc_watchdog_trips --require ugrpc_calls_started
                            --require ugrpc_calls_retransmissions --require ugrpc_net_sent
                            --require ugrpc_span_self_ns --require ugrpc_span_wall_ns
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "check_prom.py ${dump}/metrics.prom exited with ${rc}")
    endif()
  endif()
endif()
file(REMOVE_RECURSE "${DIR}")
