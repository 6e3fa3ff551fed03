# Fleet scenarios end to end (ctest `fleet_smoke`): drive a shared-RF
# fleet search through the real design_query CLI, cold and warm against
# one cache: design_query --fleet-demo brackets the smallest capacitance
# at which every coupled node completes, cold, and its warm rerun replays
# every probe from the cache. The 3-node example fleet's own cache round
# trip (3 fresh / 0 warm, then 0 fresh / 3 warm, byte-identical results,
# whole fleet completes) is pinned in-process by
# FleetRun.ColdWarmCacheRoundTrip (tests/fleet_test.cpp).
#
# Invoked as:
#   cmake -DDQ=<design_query> -DWORK=<scratch dir> -P fleet_smoke.cmake

if(NOT DQ OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DDQ=... -DWORK=... -P fleet_smoke.cmake")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# design_query --fleet-demo: smallest capacitance at which every coupled
# node completes, cold then warm against one cache.
execute_process(
  COMMAND ${DQ} --fleet-demo --cache ${WORK}/dq_cache
  RESULT_VARIABLE dq_result OUTPUT_VARIABLE dq_out ERROR_VARIABLE dq_err)
if(NOT dq_result EQUAL 0)
  message(FATAL_ERROR "design_query --fleet-demo failed (${dq_result}):\n${dq_out}\n${dq_err}")
endif()
if(NOT dq_out MATCHES "threshold bracket")
  message(FATAL_ERROR "design_query --fleet-demo reported no bracket:\n${dq_out}")
endif()
execute_process(
  COMMAND ${DQ} --fleet-demo --cache ${WORK}/dq_cache
  RESULT_VARIABLE dq_warm_result OUTPUT_VARIABLE dq_warm_out
  ERROR_VARIABLE dq_warm_err)
if(NOT dq_warm_result EQUAL 0)
  message(FATAL_ERROR "warm design_query --fleet-demo failed (${dq_warm_result}):\n${dq_warm_out}\n${dq_warm_err}")
endif()
if(NOT dq_warm_out MATCHES "threshold bracket")
  message(FATAL_ERROR "warm design_query --fleet-demo lost its bracket:\n${dq_warm_out}")
endif()
if(NOT dq_warm_out MATCHES "simulated 0 of")
  message(FATAL_ERROR "warm design_query --fleet-demo simulated probes it should have replayed:\n${dq_warm_out}")
endif()

message(STATUS "fleet smoke: shared-RF fleet search round-trips the cache; the warm rerun simulates zero probes")
