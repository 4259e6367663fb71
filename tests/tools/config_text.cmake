# The configuration text at the command line: every line `config_explorer
# list` prints must check clean through `config_explorer check` (exit 0),
# and so must a line with non-default durations, acceptance and group; a
# well-formed but invalid line must exit 1 and list each violated Rule; a
# malformed one must exit 2 and name its token; and `ugrpcstat
# --check-flight` must exit 1, naming the token, on a trace file whose
# config line holds a token this build does not know (checking it against
# less than it promised would call it clean).  The trace file comes from a
# `udp_group_call --trace-dir` run, with one byte of its config line
# overwritten in place by dd.  Run as
#   cmake -DEXPLORER=<config_explorer> -DEXAMPLE=<udp_group_call>
#         -DUGRPCSTAT=<ugrpcstat> -DDIR=<work dir> -P config_text.cmake
execute_process(COMMAND "${EXPLORER}" list OUTPUT_VARIABLE listed RESULT_VARIABLE rc)
string(REGEX MATCHALL "[^\n]+" lines "${listed}")
list(LENGTH lines count)
if(NOT rc EQUAL 0 OR NOT count EQUAL 198)
  message(FATAL_ERROR "config_explorer list: exit ${rc}, ${count} lines; expected 0 and 198")
endif()
foreach(line IN LISTS lines)
  string(REGEX REPLACE "^ *[0-9]+  " "" text "${line}")
  execute_process(COMMAND "${EXPLORER}" check "${text}" RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err TIMEOUT 20)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "config_explorer check '${text}': exit ${rc} ${err}; expected 0")
  endif()
endforeach()

# Values no list line holds: every duration field, acceptance ALL, and a
# group other than 1, which the explorer's scenario then serves.
execute_process(COMMAND "${EXPLORER}" check
                "group=7|reliable=5ms|unique|total|membership=20ms/100ms|acceptance=all"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 20)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "config_explorer check with group 7 and membership: exit ${rc} ${err}")
endif()

function(expect_invalid text)
  execute_process(COMMAND "${EXPLORER}" check "${text}" RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out TIMEOUT 20)
  foreach(rule IN LISTS ARGN)
    if(NOT rc EQUAL 1 OR NOT out MATCHES "${rule}")
      message(FATAL_ERROR "config_explorer check '${text}': exit ${rc}, output '${out}'; "
                          "expected exit 1 and ${rule}")
    endif()
  endforeach()
endfunction()
expect_invalid("total|bounded=1s" "TotalOrder->ReliableCommunication"
               "TotalOrder->UniqueExecution" "TotalOrder-x-BoundedTermination")
expect_invalid("membership=20ms/20ms" "Membership.timeouts")

foreach(case "sync|fifo|bounded=1x" "sync|async" "total|reliable=0us")
  execute_process(COMMAND "${EXPLORER}" check "${case}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 20)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "bad token '.+'")
    message(FATAL_ERROR "config_explorer check '${case}': exit ${rc}, stderr '${err}'; "
                        "expected exit 2 and the token named")
  endif()
endforeach()

file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${EXAMPLE}" --servers 1 --calls 1 --timeout-sec 60 --trace-dir "${DIR}"
                RESULT_VARIABLE rc TIMEOUT 60)
set(trace "${DIR}/trace-site1.bin")
if(NOT rc EQUAL 0 OR NOT EXISTS "${trace}")
  message(FATAL_ERROR "udp_group_call --trace-dir: exit ${rc}, no ${trace}")
endif()
execute_process(COMMAND "${UGRPCSTAT}" --check-flight "${trace}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ugrpcstat --check-flight ${trace}: exit ${rc} before the edit")
endif()
# "|unbounded|" becomes "|unboundex|": the same length, so the file still loads.
file(READ "${trace}" hex HEX)
string(FIND "${hex}" "7c756e626f756e6465647c" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no '|unbounded|' in the config line of ${trace}")
endif()
math(EXPR at "${at} / 2 + 9")
file(WRITE "${DIR}/patch" "x")
execute_process(COMMAND dd "if=${DIR}/patch" "of=${trace}" bs=1 "seek=${at}" conv=notrunc
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dd could not edit ${trace}: exit ${rc}")
endif()
execute_process(COMMAND "${UGRPCSTAT}" --check-flight "${trace}" RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "'unboundex'")
  message(FATAL_ERROR "ugrpcstat --check-flight on an unknown config token: exit ${rc}, "
                      "stderr '${err}'; expected exit 1 and 'unboundex' named")
endif()
file(REMOVE_RECURSE "${DIR}")
