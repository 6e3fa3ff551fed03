# End-to-end cost-weighted sharding smoke test (registered in ctest as
# shard_plan_smoke): an unsharded eq5_crossover run emits the per-point
# timing plan, two LPT-balanced shard processes consume it, sweep_merge
# reassembles their shard CSVs, and the result must be byte-identical to
# the unsharded run's CSV — the cost-weighted loop of ROADMAP "surface
# cost-weighted sharding in the CLIs", driven through the real binaries.
#
#   cmake -DEQ5=<eq5_crossover> -DMERGE=<sweep_merge> -DWORK=<dir> -P this
#
# The shared cache keeps the shard runs warm (hits replay each point's
# original cost), so the smoke also exercises the plan's cache interplay.
foreach(var EQ5 MERGE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(T_END 2)

execute_process(
  COMMAND "${EQ5}" --t-end ${T_END} --csv "${WORK}/full.csv"
          --cache "${WORK}/cache" --shard-plan "${WORK}/timing.csv"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "unsharded plan-emitting run failed (${rc})")
endif()
if(NOT EXISTS "${WORK}/timing.csv")
  message(FATAL_ERROR "--shard-plan did not emit ${WORK}/timing.csv")
endif()

foreach(k RANGE 1)
  execute_process(
    COMMAND "${EQ5}" --t-end ${T_END} --shard ${k}/2 --csv "${WORK}/shard${k}.csv"
            --cache "${WORK}/cache" --shard-plan "${WORK}/timing.csv"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "LPT shard ${k}/2 run failed (${rc})")
  endif()
endforeach()

execute_process(
  COMMAND "${MERGE}" "${WORK}/merged.csv" "${WORK}/shard0.csv" "${WORK}/shard1.csv"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep_merge failed on assignment shards (${rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK}/full.csv" "${WORK}/merged.csv"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "merged LPT shard CSV differs from the unsharded run")
endif()

# A shard run pointed at a missing plan must fail loudly, not silently
# fall back to striding (the partition would no longer match its peers).
execute_process(
  COMMAND "${EQ5}" --t-end ${T_END} --shard 0/2 --csv "${WORK}/bad.csv"
          --shard-plan "${WORK}/no-such-plan.csv"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "shard run accepted a missing timing plan")
endif()

message(STATUS "plan-emit -> LPT shards -> merge is byte-identical to the unsharded run")
