# Two short traced runs; their self-profile exports must lint clean with
# cube_lint and difference with cube_calc.  Invoked by ctest with
# -DPERFBENCH=... -DCUBE_LINT=... -DCUBE_CALC=... -DWORK=...
file(REMOVE_RECURSE "${WORK}")
foreach(seed 1 2)
  execute_process(
    COMMAND "${PERFBENCH}" --workload hot_replay --seed ${seed} --seconds 1
            --trace 1 --work-dir "${WORK}/run${seed}"
            --trace-dir "${WORK}/trace${seed}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "\"correct\": true")
    message(FATAL_ERROR "traced run ${seed} failed (${rc}):\n${out}")
  endif()
  execute_process(COMMAND "${CUBE_LINT}" "${WORK}/trace${seed}/profile.cube"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cube_lint rejected trace ${seed} (${rc}):\n${out}${err}")
  endif()
endforeach()
execute_process(
  COMMAND "${CUBE_CALC}" "diff(a, b)" "a=${WORK}/trace1/profile.cube"
          "b=${WORK}/trace2/profile.cube" -o "${WORK}/delta.cube"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cube_calc diff of the two traces failed (${rc}):\n${out}${err}")
endif()
execute_process(COMMAND "${CUBE_LINT}" "${WORK}/delta.cube"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cube_lint rejected the difference (${rc}):\n${out}${err}")
endif()
file(REMOVE_RECURSE "${WORK}")
