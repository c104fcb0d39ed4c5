# `satnetctl paper --figure ID` in a fresh process must print exactly
# that section's slice of the whole report (tests/golden/paper.txt): the
# text must appear in the snapshot starting at the section's banner and
# end where the next section's banner begins. A section that reads
# state an earlier section left behind in the process fails here.
#
#   cmake -DSATNETCTL=... -DGOLDEN=tests/golden/paper.txt \
#         -P satnetctl_paper_sections.cmake

set(rule "================================================================")
file(READ "${GOLDEN}" golden)

# section_slice(<id> <its first banner title> <the next section's first banner title>)
function(section_slice id title next_title)
  execute_process(
    COMMAND "${SATNETCTL}" paper --figure ${id}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper --figure ${id}: exit code '${rc}'\n${err}")
  endif()
  string(FIND "${out}" "\n${rule}\n${title}" head)
  if(NOT head EQUAL 0)
    message(FATAL_ERROR "paper --figure ${id}: output does not open with '${title}':\n${out}")
  endif()
  string(FIND "${golden}" "${out}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "paper --figure ${id}: output is not a slice of ${GOLDEN} "
                        "(the section depends on process state):\n${out}")
  endif()
  string(LENGTH "${out}" len)
  math(EXPR end "${at} + ${len}")
  string(SUBSTRING "${golden}" ${end} -1 rest)
  string(FIND "${rest}" "\n${rule}\n${next_title}" next)
  if(NOT next EQUAL 0)
    message(FATAL_ERROR "paper --figure ${id}: output stops before the section ends in ${GOLDEN}")
  endif()
endfunction()

section_slice(fig4 "Figure 4a — " "Figure 5 / 12 — ")
section_slice(table2 "Table 2 — " "Table 3 — ")
