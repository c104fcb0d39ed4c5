# A healthy default campaign must not report stalls. Shard sizes differ
# by design (a Starlink chunk holds ~1000 tests, most other operators'
# shards a handful), so a shard far slower than the phase median is
# normal work, not a hang; only the opt-in pool watchdog (--watchdog-ms)
# judges stalls. The run must succeed with no stderr line mentioning a
# stall.
#
#   cmake -DSATNETCTL=path/to/satnetctl -DWORKDIR=scratch/dir \
#         -P satnetctl_no_stall_noise.cmake

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${SATNETCTL}" campaign --threads 4 --out "${WORKDIR}/ndt.csv"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign failed with exit code '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(REGEX MATCHALL "[^\n]*stall[^\n]*" stalls "${err}")
if(stalls)
  list(JOIN stalls "\n" lines)
  message(FATAL_ERROR "healthy campaign printed stall lines:\n${lines}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
