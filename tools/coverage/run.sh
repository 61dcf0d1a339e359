#!/bin/bash
# Coverage map of src/: the functions and lines that no configuration runs.
#
# Usage (from anywhere; OUT_DIR is a throwaway build directory):
#
#   tools/coverage/run.sh OUT_DIR
#
# Configures two `--coverage` Debug builds under OUT_DIR, the tier-1 tree
# (OUT_DIR/tier1: unit tests, benches, examples) and perfbench/
# (OUT_DIR/perfbench), and drives them with
#   * every ctest of the tier-1 tree,
#   * CI's nine flagged bench runs (the SMP and profiler smokes of
#     .github/workflows/ci.yml), run in OUT_DIR/runs so their exports land
#     there,
#   * an untraced and a traced 1-s episode of each perfbench workload,
# then prints the unrun src/ functions and lines with
# tools/coverage/unrun.py.  Death-test children abort, so they write no
# counts; unrun.py names the functions only they reach.  This is a map for
# deleting what nothing reaches, not a CI gate.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
ROOT=$(cd "$(dirname "$0")/../.." && pwd)
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
JOBS=${JOBS:-4}
COVERAGE=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
          -DCMAKE_EXE_LINKER_FLAGS=--coverage)

cmake -S "$ROOT" -B "$OUT/tier1" "${COVERAGE[@]}" > /dev/null
cmake --build "$OUT/tier1" -j "$JOBS" > /dev/null
cmake -S "$ROOT/perfbench" -B "$OUT/perfbench" "${COVERAGE[@]}" > /dev/null
cmake --build "$OUT/perfbench" -j "$JOBS" > /dev/null
# Counts accumulate across runs; start from none.
find "$OUT/tier1" "$OUT/perfbench" -name '*.gcda' -delete

ctest --test-dir "$OUT/tier1" -j "$JOBS" --timeout 600 | tail -3

mkdir -p "$OUT/runs"
cd "$OUT/runs"
B="$OUT/tier1/bench"
{
  "$B/bench_perf_smp" --smoke --trace
  "$B/bench_perf_shared_storm" --smoke
  "$B/bench_perf_runqueue" --smoke
  "$B/bench_perf_name_storm" --smoke
  "$B/bench_perf_login_storm" --smoke
  "$B/bench_perf_smp" --smoke --profile
  "$B/bench_perf_name_storm" --smoke --profile
  "$B/bench_perf_runqueue" --smoke --profile
  "$B/bench_perf_login_storm" --smoke --profile
} > flagged.out
for workload in rush_hour name_walk page_storm; do
  for trace in 0 1; do
    "$OUT/perfbench/mks_perfbench" --workload "$workload" --seed 1 --seconds 1 \
      --trace "$trace" > "perfbench_${workload}_trace${trace}.out"
  done
done

python3 "$ROOT/tools/coverage/unrun.py" "$ROOT/src" "$OUT/tier1" "$OUT/perfbench"
