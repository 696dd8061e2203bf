# vsgc_stress --replay must check a bundle's fault script against its
# config.json: a crash of process 99 in a 4-client world is rejected with
# exit code 2 and a message naming the op, before any world is built.
#
#   cmake -DSTRESS=<vsgc_stress binary> -DWORK=<scratch dir> \
#         -P stress_replay_bad_op.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/config.json" [=[{
  "seed": 3,
  "clients": 4,
  "servers": 1,
  "steps": 10,
  "drop": 0.0,
  "two_tier": false,
  "forwarding": "mincopies",
  "bug_at_step": -1,
  "corrupt": false,
  "eventual_window": 30000000
}
]=])
file(WRITE "${WORK}/fault_script.json" [=[{
  "seed": 3,
  "ops": [
    {"at": 0, "kind": "heal"},
    {"at": 100000, "kind": "crash", "a": 99}
  ]
}
]=])
execute_process(COMMAND "${STRESS}" --replay "${WORK}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "exit status '${rc}', expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "op 1 \\(crash at 100000\\): process index a=99")
  message(FATAL_ERROR "the error does not name the bad op:\n${err}")
endif()
