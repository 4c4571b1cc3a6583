# cli_flag_test.cmake - numeric-flag validation across every CLI entry point.
#
# Run as a ctest script:  cmake -DBIN_DIR=<build dir> -P cli_flag_test.cmake
#
# Every tool funnels its count-valued flags through bench::parseCountStrict
# (bench/BenchUtil.h): the whole operand must be a positive decimal number,
# anything else — letters, trailing junk, zero where a minimum of one is
# required, a missing operand — is a usage error and must exit 2 before any
# work starts. Event bounds (`tmw_audit --events`, TMW_BENCH_MAX_EVENTS)
# must also lie in 1..kMaxEvents, and TMW_BENCH_BUDGET_SECONDS must be a
# finite number >= 0. One stray accepted flag here means a typo like
# `--jobs 4x` silently ran single-threaded, so each case is pinned
# individually.

if(NOT DEFINED BIN_DIR)
  message(FATAL_ERROR "pass -DBIN_DIR=<directory containing the built tools>")
endif()

set(FAILURES 0)

# expect_exit(<code> <tool> [args...]) - run a tool, require an exact status.
function(expect_exit EXPECTED TOOL)
  execute_process(
    COMMAND ${BIN_DIR}/${TOOL} ${ARGN}
    RESULT_VARIABLE STATUS
    OUTPUT_QUIET
    ERROR_VARIABLE STDERR)
  if(NOT STATUS EQUAL ${EXPECTED})
    message(SEND_ERROR
        "${TOOL} ${ARGN}: expected exit ${EXPECTED}, got '${STATUS}'\n${STDERR}")
    math(EXPR FAILURES "${FAILURES}+1")
    set(FAILURES ${FAILURES} PARENT_SCOPE)
  endif()
endfunction()

# expect_env_exit(<code> <VAR=value> <tool> [args...]) - the same, with one
# environment variable set for the run.
function(expect_env_exit EXPECTED ASSIGNMENT TOOL)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${ASSIGNMENT} ${BIN_DIR}/${TOOL} ${ARGN}
    RESULT_VARIABLE STATUS
    OUTPUT_QUIET
    ERROR_VARIABLE STDERR)
  if(NOT STATUS EQUAL ${EXPECTED})
    message(SEND_ERROR
        "${ASSIGNMENT} ${TOOL} ${ARGN}: expected exit ${EXPECTED}, got '${STATUS}'\n${STDERR}")
    math(EXPR FAILURES "${FAILURES}+1")
    set(FAILURES ${FAILURES} PARENT_SCOPE)
  endif()
endfunction()

# --- bad values: every strict numeric flag, one probe each -----------------
expect_exit(2 litmus_tool --corpus --cap bogus)
expect_exit(2 litmus_tool --corpus --cap 12x)
expect_exit(2 tmw_serve --max-clients bogus)
expect_exit(2 tmw_serve --max-clients 0)
expect_exit(2 tmw_serve --accept-limit bogus)
expect_exit(2 tmw_serve --jobs bogus)
expect_exit(2 tmw_serve --jobs)
expect_exit(2 tmw_serve --serial)  # removed flag: an unknown-flag usage error
expect_exit(2 litmus_tool --lint)  # removed flag: tmw_lint is the lint frontend
expect_exit(2 litmus_tool --corpus --specialize on)  # removed flag: planned evaluation always specializes
expect_exit(2 tmw_audit --bases bogus)
expect_exit(2 tmw_audit --events bogus)
expect_exit(2 tmw_audit --events 65)          # past kMaxEvents
expect_exit(2 tmw_audit --events 4294967298)  # wraps to 2 as an unsigned
expect_exit(2 tmw_audit --placements bogus)
expect_exit(2 tmw_audit --corpus-cap bogus)
expect_exit(2 tmw_audit --max-findings bogus)
expect_exit(2 litmus_tool --corpus --jobs 0)
expect_exit(2 litmus_tool --corpus --model x86/)  # empty modifier: unknown spec
expect_exit(2 litmus_tool --corpus --model arm-silicon)  # no such alias
expect_exit(2 tmw_lint --bogus-flag)
expect_exit(2 tmw_lint)            # no inputs and no --corpus is a usage error
expect_env_exit(2 TMW_BENCH_MAX_EVENTS=65 fig7_synthesis_distribution)
expect_env_exit(2 TMW_BENCH_MAX_EVENTS=foo fig7_synthesis_distribution)
expect_env_exit(2 TMW_BENCH_BUDGET_SECONDS=-1 fig7_synthesis_distribution)

# --- good values: the same flags must still accept well-formed operands ----
expect_exit(0 tmw_lint --corpus)
expect_exit(0 litmus_tool --corpus --cap 4 --jobs 2)
expect_env_exit(0 TMW_BENCH_MAX_EVENTS=2 fig7_synthesis_distribution)

if(FAILURES GREATER 0)
  message(FATAL_ERROR "${FAILURES} CLI flag-validation case(s) failed")
endif()
message(STATUS "all CLI flag-validation cases passed")
