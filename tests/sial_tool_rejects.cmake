# Runs sial_tool on command lines it must reject: each must exit 1 with a
# `sial_tool:` diagnostic matching the expected text.
#
#   cmake -DTOOL=<sial_tool> -DPROGRAM=<file.sial> -P sial_tool_rejects.cmake

function(expect_rejected pattern)
  execute_process(COMMAND ${TOOL} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 1 OR NOT err MATCHES "sial_tool: .*${pattern}")
    message(FATAL_ERROR
            "sial_tool ${ARGN}: exit ${code}, stderr:\n${err}")
  endif()
endfunction()

expect_rejected("bad value for 'workers'" dryrun ${PROGRAM} -w 3x)
expect_rejected("unknown option '-t'" run ${PROGRAM} -t 2)
expect_rejected("opt_level must be in \\[0, 1\\]" run ${PROGRAM} -O2)
