#!/bin/bash
# Compares what two builds of this repository print.
#
# Usage (each argument is a built tier-1 tree, such as build/ after
# `cmake -B build -S . && cmake --build build -j`):
#
#   tools/compare_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# For each build, in a fresh directory per run, it runs
#   * every bench_* executable, with the arguments ctest gives it,
#   * every example_* executable,
#   * CI's nine flagged bench runs (the SMP and profiler smokes of
#     .github/workflows/ci.yml), and `bench_perf_smp --trace` and
#     `bench_perf_runqueue --profile`, whose exports the smokes leave out,
# then diffs each run's exit code, stdout, stderr and every file it wrote
# (the *.trace.json and *.prof.folded exports).  Only host timings are
# masked: the google-benchmark tables and preambles of P1, P2 and P7
# (bench_perf_linker, bench_perf_name_manager, bench_perf_eventcounts), and
# P7's *_ns JSON fields.  A binary present in one build only is a
# difference.  Prints every difference and exits 1 if there is any, 0 if
# there is none, 2 on bad usage.  A check by hand, not a CI gate.
set -euo pipefail

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
GOOGLE_BENCHMARKS=" bench_perf_eventcounts bench_perf_linker bench_perf_name_manager "
WORK=$(mktemp -d "${TMPDIR:-/tmp}/compare_outputs.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# One run per line: label, binary relative to the build, arguments.
specs() {
  for build in "$PARENT" "$CHANGE"; do
    for f in "$build"/bench/bench_* "$build"/examples/example_*; do
      if [ -f "$f" ] && [ -x "$f" ]; then  # ctest leaves *.trace.json here too
        echo "${f#"$build"/}"
      fi
    done
  done | sort -u | while read -r rel; do
    name=$(basename "$rel")
    args=""
    if [[ "$GOOGLE_BENCHMARKS" == *" $name "* ]]; then
      args="--benchmark_min_time=0.01"
    fi
    printf '%s\t%s\t%s\n' "$name" "$rel" "$args"
  done
  for flags in "perf_smp --smoke --trace" "perf_shared_storm --smoke" "perf_runqueue --smoke" \
               "perf_name_storm --smoke" "perf_login_storm --smoke" \
               "perf_smp --smoke --profile" "perf_name_storm --smoke --profile" \
               "perf_runqueue --smoke --profile" "perf_login_storm --smoke --profile" \
               "perf_smp --trace" "perf_runqueue --profile"; do
    read -r bench args <<< "$flags"
    printf '%s\t%s\t%s\n' "bench_$bench${args// /}" "bench/bench_$bench" "$args"
  done
}

run_all() {
  local build=$1 out=$2 label rel args dir code
  while IFS=$'\t' read -r label rel args; do
    dir="$out/$label"
    mkdir -p "$dir"
    if [ ! -x "$build/$rel" ]; then
      echo "not built" > "$dir/exit"
      continue
    fi
    # shellcheck disable=SC2086  # args is a word list
    (cd "$dir" && "$build/$rel" $args > stdout 2> stderr) && code=0 || code=$?
    echo "$code" > "$dir/exit"
    if [[ "$GOOGLE_BENCHMARKS" == *" $(basename "$rel") "* ]]; then
      sed -E -i \
        -e 's/^(BM_[^ ]+) .*/\1 <host timing>/' \
        -e 's/"([A-Za-z0-9_]+_ns)": *[-+0-9.eE]+/"\1": <host ns>/g' \
        -e 's/^[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9:.+-]+$/<date>/' \
        -e 's/^(Running|Run on|Load Average:) .*/\1 <host>/' \
        -e 's/^  L[0-9] .*/  <cache>/' \
        -e 's/^\*\*\*WARNING\*\*\* .*/<warning>/' \
        "$dir/stdout" "$dir/stderr"
    fi
  done < "$WORK/specs"
}

specs > "$WORK/specs"
run_all "$PARENT" "$WORK/parent"
run_all "$CHANGE" "$WORK/change"
if (cd "$WORK" && diff -ru parent change); then
  echo "compare_outputs: $(wc -l < "$WORK/specs") runs, no difference"
else
  echo "compare_outputs: the outputs differ (above)"
  exit 1
fi
