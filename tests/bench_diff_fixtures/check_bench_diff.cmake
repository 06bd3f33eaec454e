# Runs bench_diff against the fixture record for each gate outcome and
# checks its exit code and verdict line:
#
#   cmake -DBENCH_DIFF=<bench_diff binary> -DFIXTURES=<this directory> \
#         -P check_bench_diff.cmake
#
#   pass.json       every recorded ratio within tolerance   -> exit 0
#   regressed.json  a ratio below its floor                  -> exit 1
#   missing.json    a recorded ratio absent from the run     -> exit 1
#   new.json        a ratio the record lacks (not gated)     -> exit 0
function(expect current code pattern)
  execute_process(
    COMMAND ${BENCH_DIFF} ${FIXTURES}/record.json ${FIXTURES}/${current}
            --tolerance 0.15
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  message("--- ${current}: exit ${result}\n${out}${err}")
  if(NOT result EQUAL code)
    message(FATAL_ERROR "${current}: bench_diff exited ${result}, expected ${code}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "${current}: output lacks \"${pattern}\"")
  endif()
endfunction()

expect(pass.json 0 "all ratios within 15% of the record")
expect(regressed.json 1 "batched_vs_unbatched[^\n]*REGRESSED")
expect(missing.json 1 "binary_vs_json_roundtrip[^\n]*MISSING from current run")
expect(new.json 0 "cluster_vs_single_shard[^\n]*NEW \\(not gated\\)")
