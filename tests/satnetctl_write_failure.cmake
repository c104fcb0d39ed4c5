# A failed export write must not be reported as success: satnetctl
# writing its CSV to /dev/full (every write fails with ENOSPC) has to
# exit 1 with one diagnostic and no "wrote ..." line.
#
#   cmake -DSATNETCTL=path/to/satnetctl -P satnetctl_write_failure.cmake
execute_process(
  COMMAND "${SATNETCTL}" atlas --days 1 --threads 2 --out /dev/full
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit code 1, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(REGEX MATCHALL "error writing /dev/full" diagnostics "${err}")
list(LENGTH diagnostics n)
if(NOT n EQUAL 1)
  message(FATAL_ERROR "expected one 'error writing /dev/full' diagnostic, got ${n}\nstderr:\n${err}")
endif()
if(out MATCHES "wrote")
  message(FATAL_ERROR "failed write reported as success:\n${out}")
endif()
