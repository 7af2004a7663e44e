# Golden-output test for the ptran-estimate CLI: runs a fixed sequence of
# flag combinations and compares each invocation's exit code and stdout,
# byte for byte, with tests/golden/estimate/<case>.txt (first line
# "exit: N", then stdout verbatim). Cases run in order in one work
# directory, because the --pdb and --profile-out cases leave files that
# later cases read; every path is relative, so no output names a
# machine-specific directory. It also checks --version and the
# unknown-flag diagnostic on stderr. Invoked by CTest as:
#
#   cmake -DESTIMATOR=<path> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         -P EstimateGolden.cmake
#
# With -DUPDATE=ON the script rewrites the golden files from ESTIMATOR
# instead of comparing. A changed golden file is a changed CLI: review the
# diff like code.

if(NOT ESTIMATOR OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "ESTIMATOR, GOLDEN_DIR and WORK_DIR must be defined")
endif()

# "<case>|<arguments>", run in this order.
set(CASES
  "default|--workload=loops"
  "file|input.f"
  "freq_static|input.f --freq=static"
  "freq_hybrid|input.f --freq=hybrid"
  "sampling|--workload=loops --sampling=5000"
  "pdb_first|input.f --pdb=golden.db"
  "pdb_second|input.f --pdb=golden.db --runs=2"
  "check|--workload=loops --check"
  "views|input.f --statements=main --annotate=work --chunk=4,10 --plan --dot=fcdg"
  "mode_naive|--workload=loops --mode=naive"
  "mode_naive_pdb|--workload=loops --mode=naive --pdb=naive.db"
  "mode_naive_check|--workload=loops --mode=naive --check"
  "loop_variance_geometric|--workload=loops --loop-variance=geometric"
  "loop_variance_profiled|--workload=loops --runs=2 --loop-variance=profiled --jobs=2"
  "profile_out|input.f --runs=3 --profile-out=golden.ptpf"
  "profile_in|input.f --runs=0 --profile-in=golden.ptpf"
  "deadline_fail|--workload=loops --deadline-ms=0 --on-deadline=fail"
  "deadline_degrade|--workload=loops --deadline-ms=0 --on-deadline=degrade"
  "goto_loop_profiled|goto_loop.f --loop-variance=profiled"
  "goto_loop_twin_profiled|goto_loop_twin.f --loop-variance=profiled"
  "goto_irreducible|goto_irreducible.f"
)

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(GLOB INPUTS ${GOLDEN_DIR}/*.f)
file(COPY ${INPUTS} DESTINATION ${WORK_DIR})

set(FAILED "")
foreach(CASE IN LISTS CASES)
  string(FIND "${CASE}" "|" BAR)
  string(SUBSTRING "${CASE}" 0 ${BAR} NAME)
  math(EXPR ARGS_AT "${BAR} + 1")
  string(SUBSTRING "${CASE}" ${ARGS_AT} -1 ARGS)
  separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
  execute_process(
    COMMAND ${ESTIMATOR} ${ARGS}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  set(ACTUAL "exit: ${RC}\n${OUT}")
  if(UPDATE)
    file(WRITE ${GOLDEN_DIR}/${NAME}.txt "${ACTUAL}")
    continue()
  endif()
  file(WRITE ${WORK_DIR}/${NAME}.txt "${ACTUAL}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${GOLDEN_DIR}/${NAME}.txt ${WORK_DIR}/${NAME}.txt
    RESULT_VARIABLE DIFF_RC)
  if(NOT DIFF_RC EQUAL 0)
    message(SEND_ERROR
      "case '${NAME}' (${ARGS}) differs from ${GOLDEN_DIR}/${NAME}.txt; "
      "actual output in ${WORK_DIR}/${NAME}.txt; stderr:\n${ERR}")
    list(APPEND FAILED ${NAME})
  endif()
endforeach()
if(UPDATE)
  message(STATUS "golden files rewritten in ${GOLDEN_DIR}")
  return()
endif()
if(FAILED)
  message(FATAL_ERROR "golden cases differ: ${FAILED}")
endif()

execute_process(
  COMMAND ${ESTIMATOR} --version
  OUTPUT_VARIABLE VERSION_OUT
  RESULT_VARIABLE VERSION_RC)
if(NOT VERSION_RC EQUAL 0 OR NOT VERSION_OUT MATCHES "ptran-estimate ")
  message(FATAL_ERROR "--version failed: rc=${VERSION_RC} out=${VERSION_OUT}")
endif()

execute_process(
  COMMAND ${ESTIMATOR} --no-such-flag
  ERROR_VARIABLE BADFLAG_ERR
  RESULT_VARIABLE BADFLAG_RC)
if(BADFLAG_RC EQUAL 0)
  message(FATAL_ERROR "unknown flag was silently accepted")
endif()
if(NOT BADFLAG_ERR MATCHES "unknown option '--no-such-flag'")
  message(FATAL_ERROR
    "unknown-flag diagnostic is not actionable: ${BADFLAG_ERR}")
endif()

# The mode_naive_pdb case must be a usage error that names the conflict
# and leaves no database behind (naive mode used to skip --pdb silently).
execute_process(
  COMMAND ${ESTIMATOR} --workload=loops --mode=naive --pdb=naive.db
  WORKING_DIRECTORY ${WORK_DIR}
  ERROR_VARIABLE NAIVE_PDB_ERR
  RESULT_VARIABLE NAIVE_PDB_RC)
if(NAIVE_PDB_RC EQUAL 0 OR NOT NAIVE_PDB_ERR MATCHES "--pdb does not work with --mode=naive"
   OR EXISTS ${WORK_DIR}/naive.db)
  message(FATAL_ERROR
    "--mode=naive --pdb is not rejected: rc=${NAIVE_PDB_RC} ${NAIVE_PDB_ERR}")
endif()

# Likewise --mode=naive --check: naive mode recovers no totals, so the
# check used to be skipped with exit 0 and no "consistency check:" line.
execute_process(
  COMMAND ${ESTIMATOR} --workload=loops --mode=naive --check
  WORKING_DIRECTORY ${WORK_DIR}
  ERROR_VARIABLE NAIVE_CHECK_ERR
  RESULT_VARIABLE NAIVE_CHECK_RC)
if(NAIVE_CHECK_RC EQUAL 0 OR NOT NAIVE_CHECK_ERR MATCHES "--check does not work with --mode=naive")
  message(FATAL_ERROR
    "--mode=naive --check is not rejected: rc=${NAIVE_CHECK_RC} ${NAIVE_CHECK_ERR}")
endif()

# A loop whose goto-preserving header is a GOTO that goto elision folds
# away gets the same profiled loop variance as its GOTO-free twin (the
# moments used to sit under the GOTO, where the variance pass never looks).
file(READ ${WORK_DIR}/goto_loop_profiled.txt GOTO_LOOP_OUT)
file(READ ${WORK_DIR}/goto_loop_twin_profiled.txt GOTO_TWIN_OUT)
if(NOT GOTO_LOOP_OUT STREQUAL GOTO_TWIN_OUT)
  message(FATAL_ERROR "goto_loop.f and goto_loop_twin.f estimate differently "
    "under --loop-variance=profiled")
endif()

list(LENGTH CASES NUM_CASES)
message(STATUS "all ${NUM_CASES} golden cases match")
