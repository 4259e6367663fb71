# Runs the bench BENCH (with `--seed SEED` when SEED is set) and fails unless
# its stdout equals the file EXPECTED byte for byte.  On a mismatch the
# actual output is written to ACTUAL for `diff -u EXPECTED ACTUAL`.
#
#   cmake -DBENCH=<binary> [-DSEED=<n>] -DEXPECTED=<file> -DACTUAL=<file> -P compare.cmake
set(args "")
if(DEFINED SEED)
  set(args --seed ${SEED})
endif()
list(JOIN args " " shown)
execute_process(COMMAND ${BENCH} ${args} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${shown} exited with ${rc}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "${BENCH} ${shown}: output differs from the golden file; "
                      "see diff -u ${EXPECTED} ${ACTUAL}")
endif()
