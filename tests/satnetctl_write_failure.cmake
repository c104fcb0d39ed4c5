# A failed write must not be reported as success: satnetctl writing its
# CSV, or an export made at exit (metrics, trace, flight recorder), to
# /dev/full (every write fails with ENOSPC) has to exit 1 with one
# "error writing /dev/full" diagnostic and no success line for that
# file.
#
#   cmake -DSATNETCTL=path/to/satnetctl -P satnetctl_write_failure.cmake

# write_fails(<success line that must not appear> <satnetctl args>...)
function(write_fails success)
  execute_process(
    COMMAND "${SATNETCTL}" atlas --days 1 --threads 2 ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(what "case '${ARGN}'")
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${what}: expected exit code 1, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  string(REGEX MATCHALL "error writing /dev/full" diagnostics "${err}")
  list(LENGTH diagnostics n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "${what}: expected one 'error writing /dev/full' diagnostic, got ${n}\nstderr:\n${err}")
  endif()
  if(out MATCHES "${success}")
    message(FATAL_ERROR "${what}: failed write reported as success:\n${out}")
  endif()
endfunction()

write_fails("wrote" --out /dev/full)
write_fails("wrote .* to /dev/full" --out /dev/null --metrics-out /dev/full)
write_fails("wrote .* to /dev/full" --out /dev/null --trace-out /dev/full)
write_fails("wrote .* to /dev/full" --out /dev/null --recorder-out /dev/full)
