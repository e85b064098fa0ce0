# Runs extra-cli once and checks its exit code and, optionally, its output.
#
#   cmake -DCLI=<extra-cli> "-DARGS=<space-separated arguments>" -DEXIT=<code>
#         ["-DMATCH=<regex over stdout+stderr>"] -P cli_expect.cmake
separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${ArgList}
                RESULT_VARIABLE Rc
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err)
if(NOT "${Rc}" STREQUAL "${EXIT}")
  message(FATAL_ERROR
          "extra-cli ${ARGS}: exit ${Rc}, expected ${EXIT}\n${Out}${Err}")
endif()
if(NOT "${MATCH}" STREQUAL "" AND NOT "${Out}${Err}" MATCHES "${MATCH}")
  message(FATAL_ERROR
          "extra-cli ${ARGS}: output does not match '${MATCH}'\n${Out}${Err}")
endif()
