# Hostile command lines: every case must exit 2 with exactly one stderr
# line that names the offending flag, print nothing to stdout, and leave
# no file behind — the flag is rejected before any campaign, pool or
# export starts. Each case runs in a fresh, empty working directory.
#
#   cmake -DSATNETCTL=... -DGOLDEN_TEST=... -DWORKDIR=scratch/dir \
#         -P cli_bad_flags.cmake

# bad_flag(<expected text in the diagnostic> <command> <args>...)
function(bad_flag expect)
  file(REMOVE_RECURSE "${WORKDIR}")
  file(MAKE_DIRECTORY "${WORKDIR}")
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(what "case '${ARGN}'")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${what}: expected exit code 2, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT lines EQUAL 1)
    message(FATAL_ERROR "${what}: expected one stderr line, got ${lines}:\n${err}")
  endif()
  string(FIND "${err}" "${expect}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${what}: diagnostic does not name '${expect}':\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${what}: work started before the flag was rejected:\n${out}")
  endif()
  file(GLOB left "${WORKDIR}/*")
  if(left)
    message(FATAL_ERROR "${what}: left files behind: ${left}")
  endif()
endfunction()

bad_flag("--scale" "${SATNETCTL}" campaign --scale abc)
bad_flag("--scale" "${SATNETCTL}" campaign --scale -1)
bad_flag("--days" "${SATNETCTL}" atlas --days -3)
bad_flag("--help" "${SATNETCTL}" campaign --help)
bad_flag("--thread" "${SATNETCTL}" campaign --thread 2)
# The access-index ablation flag is gone with the index.
bad_flag("--no-access-cache" "${SATNETCTL}" campaign --no-access-cache)
# Timelines live in memory only: there is no file to load or save.
bad_flag("--timeline-in" "${SATNETCTL}" campaign --timeline-in x)
bad_flag("--timeline-out" "${SATNETCTL}" campaign --timeline-out x)
bad_flag("--recorder-ring" "${SATNETCTL}" campaign --recorder-ring abc)
bad_flag("--retries" "${SATNETCTL}" campaign --retries 0)
bad_flag("--orbit-model" "${SATNETCTL}" world --seed 1 --orbit-model foo)
bad_flag("--t " "${SATNETCTL}" tle F --t abc)
bad_flag("--scale" "${SATNETCTL}" campaign --scale 0.001 --scale=0.002)
bad_flag("--seed" "${SATNETCTL}" world --seed 1 --seed 2)
bad_flag("--figure" "${SATNETCTL}" paper --figure nope)
# The unloadable fault plan is a second fence: a build whose parser let
# 100000 through would stop at the plan, so this case never spawns a
# pool. The diagnostic must name --threads, i.e. the parse came first.
bad_flag("--threads" "${SATNETCTL}" campaign --threads 100000 --fault-plan missing.plan)
bad_flag("--threads" "${GOLDEN_TEST}" --gtest_filter=None --threads abc)
file(REMOVE_RECURSE "${WORKDIR}")
