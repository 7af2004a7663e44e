# End-to-end observability smoke test: runs ptran-estimate with --stats
# and --trace on a multi-function workload, checks that the trace file is
# valid JSON carrying the expected span names and that the stats tables
# (session and thread-pool counters included) reach stdout, and that the
# strict numeric-flag parsing rejects garbage with an actionable message.
# It also byte-compares the profile files --profile-out and --pdb write.
# Invoked by CTest as:
#
#   cmake -DESTIMATOR=<path> -DWORK_DIR=<dir> -P StatsSmoke.cmake

if(NOT ESTIMATOR OR NOT WORK_DIR)
  message(FATAL_ERROR "ESTIMATOR and WORK_DIR must be defined")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})

function(check_trace_and_stats LABEL TRACE_FILE STDOUT_FILE)
  # string(JSON) parses strictly, so this rejects malformed output the way
  # chrome://tracing would.
  file(READ ${TRACE_FILE} TRACE_JSON)
  string(JSON EVENT_COUNT ERROR_VARIABLE JSON_ERR
         LENGTH "${TRACE_JSON}" traceEvents)
  if(JSON_ERR)
    message(FATAL_ERROR "${LABEL}: trace is not valid JSON: ${JSON_ERR}")
  endif()
  if(EVENT_COUNT LESS 10)
    message(FATAL_ERROR
      "${LABEL}: suspiciously few trace events (${EVENT_COUNT})")
  endif()
  foreach(SPAN analysis.program analysis.cfg plan.counters profiled-run
          timeanalysis.run timeanalysis.wave timeanalysis.scc)
    if(NOT TRACE_JSON MATCHES "\"name\":\"${SPAN}\"")
      message(FATAL_ERROR "${LABEL}: trace is missing span '${SPAN}'")
    endif()
  endforeach()
  file(READ ${STDOUT_FILE} OUT)
  if(NOT OUT MATCHES "observability: timing spans")
    message(FATAL_ERROR "${LABEL}: --stats printed no span table")
  endif()
  if(NOT OUT MATCHES "observability: counters")
    message(FATAL_ERROR "${LABEL}: --stats printed no counter table")
  endif()
  if(NOT OUT MATCHES "recovery.fixpoint_iterations")
    message(FATAL_ERROR "${LABEL}: recovery counters missing from --stats")
  endif()
endfunction()

# Every invocation runs through an EstimationSession, so --stats must also
# report session.* and (with two jobs) threadpool.* counters.
execute_process(
  COMMAND ${ESTIMATOR} --workload=loops --runs=2 --jobs=2 --stats
          --trace=${WORK_DIR}/trace.json
  OUTPUT_FILE ${WORK_DIR}/stats.txt
  RESULT_VARIABLE STATS_RC)
if(NOT STATS_RC EQUAL 0)
  message(FATAL_ERROR "--stats run failed (rc=${STATS_RC})")
endif()
check_trace_and_stats(stats ${WORK_DIR}/trace.json ${WORK_DIR}/stats.txt)
file(READ ${WORK_DIR}/stats.txt STATS_OUT)
foreach(COUNTER session.runs session.queries threadpool.tasks_executed)
  if(NOT STATS_OUT MATCHES "${COUNTER}")
    message(FATAL_ERROR "--stats is missing counter '${COUNTER}'")
  endif()
endforeach()

# An unwritable trace path must fail loudly, not drop the trace.
execute_process(
  COMMAND ${ESTIMATOR} --workload=simple --runs=1
          --trace=${WORK_DIR}/no-such-dir/trace.json
  OUTPUT_QUIET
  ERROR_VARIABLE TRACEFAIL_ERR
  RESULT_VARIABLE TRACEFAIL_RC)
if(TRACEFAIL_RC EQUAL 0)
  message(FATAL_ERROR "unwritable --trace path was silently ignored")
endif()
if(NOT TRACEFAIL_ERR MATCHES "trace")
  message(FATAL_ERROR
    "unwritable --trace diagnostic is not actionable: ${TRACEFAIL_ERR}")
endif()

# Regression: numeric flags reject what atoi silently mangled to 0.
foreach(BADFLAG --runs=ten --runs= --chunk=x,y --chunk=4
        --sampling=fast --jobs=two)
  execute_process(
    COMMAND ${ESTIMATOR} --workload=simple ${BADFLAG}
    OUTPUT_QUIET
    ERROR_VARIABLE BAD_ERR
    RESULT_VARIABLE BAD_RC)
  if(BAD_RC EQUAL 0)
    message(FATAL_ERROR "'${BADFLAG}' was silently accepted")
  endif()
  if(NOT BAD_ERR MATCHES "invalid value")
    message(FATAL_ERROR "'${BADFLAG}' diagnostic not actionable: ${BAD_ERR}")
  endif()
endforeach()

# --runs=0 is only meaningful when a saved profile supplies the data; on
# its own it must fail and point at --profile-in.
execute_process(
  COMMAND ${ESTIMATOR} --workload=simple --runs=0
  OUTPUT_QUIET
  ERROR_VARIABLE RUNS0_ERR
  RESULT_VARIABLE RUNS0_RC)
if(RUNS0_RC EQUAL 0)
  message(FATAL_ERROR "bare '--runs=0' was silently accepted")
endif()
if(NOT RUNS0_ERR MATCHES "profile-in")
  message(FATAL_ERROR
    "bare '--runs=0' diagnostic not actionable: ${RUNS0_ERR}")
endif()

# Durable-profile round trip: save from a profiled session, then estimate
# with no new runs purely from the validated + ingested file.
execute_process(
  COMMAND ${ESTIMATOR} --workload=simple --runs=2
          --profile-out=${WORK_DIR}/smoke.ptpf
  OUTPUT_QUIET
  ERROR_VARIABLE SAVE_ERR
  RESULT_VARIABLE SAVE_RC)
if(NOT SAVE_RC EQUAL 0)
  message(FATAL_ERROR "--profile-out failed: ${SAVE_ERR}")
endif()
execute_process(
  COMMAND ${ESTIMATOR} --workload=simple --runs=0
          --profile-in=${WORK_DIR}/smoke.ptpf --on-bad-profile=fail
  OUTPUT_VARIABLE INGEST_OUT
  ERROR_VARIABLE INGEST_ERR
  RESULT_VARIABLE INGEST_RC)
if(NOT INGEST_RC EQUAL 0)
  message(FATAL_ERROR "--profile-in round trip failed: ${INGEST_ERR}")
endif()
if(NOT INGEST_OUT MATCHES "ingested")
  message(FATAL_ERROR "--profile-in printed no ingest report: ${INGEST_OUT}")
endif()
# --profile-in combines with every other input and frequency flag: one
# more run, the sampling profiler, a program database and hybrid
# frequencies all feed the same session.
execute_process(
  COMMAND ${ESTIMATOR} --workload=simple --runs=1
          --profile-in=${WORK_DIR}/smoke.ptpf --sampling=50000
          --pdb=${WORK_DIR}/smoke.db --freq=hybrid
  OUTPUT_VARIABLE COMBO_OUT
  ERROR_VARIABLE COMBO_ERR
  RESULT_VARIABLE COMBO_RC)
if(NOT COMBO_RC EQUAL 0)
  message(FATAL_ERROR "--profile-in with --sampling, --pdb and --freq failed: "
                      "${COMBO_ERR}")
endif()
foreach(EXPECTED "ingested" "sampling profile" "program database"
        "TIME\\(START\\)")
  if(NOT COMBO_OUT MATCHES "${EXPECTED}")
    message(FATAL_ERROR
      "combined --profile-in run printed no '${EXPECTED}': ${COMBO_OUT}")
  endif()
endforeach()

function(run_estimator LABEL)
  execute_process(
    COMMAND ${ESTIMATOR} ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE RUN_ERR
    RESULT_VARIABLE RUN_RC)
  if(NOT RUN_RC EQUAL 0)
    message(FATAL_ERROR "${LABEL} failed (rc=${RUN_RC}): ${RUN_ERR}")
  endif()
endfunction()

function(expect_same_file LABEL EXPECTED ACTUAL)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
    RESULT_VARIABLE SAME_RC)
  if(NOT SAME_RC EQUAL 0)
    message(FATAL_ERROR "${LABEL}: ${ACTUAL} differs from ${EXPECTED}")
  endif()
endfunction()

# Regression: --profile-out saves this invocation's runs only. Loop
# moments ingested through --profile-in used to leak into the saved file
# (counters from one run, moments from two), so a one-run profile re-saved
# after ingesting itself was not the same file.
run_estimator("--profile-out" --workload=loops
              --profile-out=${WORK_DIR}/own_a.ptpf)
run_estimator("--profile-in + --profile-out" --workload=loops
              --profile-in=${WORK_DIR}/own_a.ptpf
              --profile-out=${WORK_DIR}/own_b.ptpf)
expect_same_file("--profile-out after --profile-in"
                 ${WORK_DIR}/own_a.ptpf ${WORK_DIR}/own_b.ptpf)

# --pdb accumulates exactly: two one-run invocations leave the same bytes
# as one two-run --profile-out.
file(REMOVE ${WORK_DIR}/pdb_twice.ptpf)
foreach(PASS 1 2)
  run_estimator("--pdb pass ${PASS}" --workload=loops
                --pdb=${WORK_DIR}/pdb_twice.ptpf)
endforeach()
run_estimator("--runs=2 --profile-out" --workload=loops --runs=2
              --profile-out=${WORK_DIR}/runs_two.ptpf)
expect_same_file("two --pdb runs" ${WORK_DIR}/runs_two.ptpf
                 ${WORK_DIR}/pdb_twice.ptpf)

# A damaged section of a --pdb database is reported and replaced by this
# invocation's section. Seed 1 flips a byte in one section's payload as
# the first save writes it; the second run must heal the file, so a strict
# ingest of the result succeeds.
file(REMOVE ${WORK_DIR}/pdb_heal.ptpf)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PTRAN_FAULT=seed=1,profile.flip=1
          ${ESTIMATOR} --workload=loops --pdb=${WORK_DIR}/pdb_heal.ptpf
  OUTPUT_QUIET
  ERROR_QUIET)
execute_process(
  COMMAND ${ESTIMATOR} --workload=loops --pdb=${WORK_DIR}/pdb_heal.ptpf
  OUTPUT_QUIET
  ERROR_VARIABLE HEAL_ERR
  RESULT_VARIABLE HEAL_RC)
if(NOT HEAL_RC EQUAL 0 OR NOT HEAL_ERR MATCHES "section checksum mismatch")
  message(FATAL_ERROR
    "--pdb over a damaged section (rc=${HEAL_RC}): ${HEAL_ERR}")
endif()
run_estimator("strict ingest of the healed database" --workload=loops
              --runs=0 --profile-in=${WORK_DIR}/pdb_heal.ptpf
              --on-bad-profile=fail)

message(STATUS "observability smoke test passed")
