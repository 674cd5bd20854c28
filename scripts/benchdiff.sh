#!/usr/bin/env bash
# benchdiff.sh old.txt new.txt — benchstat-style comparison of two
# `go test -bench` outputs. For every benchmark present in both files it
# prints ns/op, B/op, and allocs/op side by side with percent deltas;
# metrics only one run reported print as n/a instead of blank fields, and
# benchmarks present in only one file are listed separately.
# Purely informational: low-iteration CI runs are noisy, so callers must
# not gate on the deltas (the CI step runs with continue-on-error).
#
# With no arguments, diffs the two most recent per-PR bench-gate artifacts
# (BENCH_<n>.json, highest two numbers) checked into the repo root instead.
set -euo pipefail

if [ "$#" -eq 0 ]; then
  cd "$(dirname "$0")/.."
  # shellcheck disable=SC2012 # names are BENCH_<digits>.json, ls -v is safe
  set -- $(ls BENCH_[0-9]*.json 2>/dev/null | sort -t_ -k2 -n | tail -2)
  if [ "$#" -lt 2 ]; then
    echo "benchdiff.sh: need at least two BENCH_<n>.json artifacts (have $#)" >&2
    exit 1
  fi
  echo "== benchdiff: $1 vs $2 =="
  awk '
  FNR == 1 { file++ }
  # One benchmark per line in the gate artifact:
  #   "BenchmarkX": {"ns_per_op": 1, "b_per_op": 2, "allocs_per_op": 3},
  /"Benchmark/ {
    line = $0
    gsub(/[",:{}]/, " ", line)
    split(line, f, /[ \t]+/)
    name = f[2]
    for (i = 2; i in f; i++) {
      if (f[i] == "ns_per_op")     ns[file, name] = f[i + 1]
      if (f[i] == "allocs_per_op") al[file, name] = f[i + 1]
    }
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    have[file, name] = 1
  }
  # Scalar summary fields (speedups, flip rate, testbed medians).
  /"(predict|serve)_quant_speedup"|"decision_flip_rate"|"scenario_run_(ms|bytes)"|"replay_pair_ms"/ {
    line = $0
    gsub(/[",:{}]/, " ", line)
    split(line, f, /[ \t]+/)
    sc[file, f[2]] = f[3]
    if (!(f[2] in sseen)) { sseen[f[2]] = 1; sorder[++sn] = f[2] }
  }
  function delta(o, v) {
    if (o == "" || v == "" || o + 0 == 0) return "n/a"
    return sprintf("%+.1f%%", (v - o) * 100 / o)
  }
  END {
    printf "%-42s %12s %12s %9s %16s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs old->new"
    for (i = 1; i <= n; i++) {
      name = order[i]
      if (have[1, name] && have[2, name])
        printf "%-42s %12s %12s %9s %10s -> %s\n", name, ns[1, name], ns[2, name], \
          delta(ns[1, name], ns[2, name]), al[1, name], al[2, name]
      else
        printf "%-42s only in %s run\n", name, (have[1, name] ? "old" : "new")
    }
    for (i = 1; i <= sn; i++) {
      k = sorder[i]
      printf "%-42s %12s %12s %9s\n", k, sc[1, k], sc[2, k], delta(sc[1, k], sc[2, k])
    }
  }' "$1" "$2"
  exit 0
fi

old="${1:?usage: benchdiff.sh [old.txt new.txt]}"
new="${2:?usage: benchdiff.sh [old.txt new.txt]}"

awk '
function record(name,    i) {
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op")     ns[file, name] = $(i - 1)
    if ($i == "B/op")      bop[file, name] = $(i - 1)
    if ($i == "allocs/op") al[file, name] = $(i - 1)
  }
  if (!(name in seen)) { seen[name] = 1; order[++n] = name }
  have[file, name] = 1
}
# val: a metric that may be absent in one run (ReportAllocs is per-bench).
function val(file, name, arr) {
  return ((file, name) in arr) ? arr[file, name] : "n/a"
}
function delta(o, v) {
  if (o == "n/a" || v == "n/a") return "n/a"
  if (o + 0 == 0) return (v + 0 == 0) ? "+0.0%" : "n/a"
  return sprintf("%+.1f%%", (v - o) * 100 / o)
}
FNR == 1 { file++ }
/^Benchmark/ { record($1) }
END {
  printf "%-48s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
  for (i = 1; i <= n; i++) {
    name = order[i]
    if (have[1, name] && have[2, name]) {
      printf "%-48s %14s %14s %9s\n", name, ns[1, name], ns[2, name], delta(ns[1, name], ns[2, name])
      if ((1, name) in al || (2, name) in al || (1, name) in bop || (2, name) in bop) {
        ob = val(1, name, bop); nb = val(2, name, bop)
        oa = val(1, name, al);  na = val(2, name, al)
        printf "%-48s %9s -> %-9s B/op %9s   allocs %6s -> %-6s %9s\n", \
          "", ob, nb, delta(ob, nb), oa, na, delta(oa, na)
      }
    }
  }
  for (i = 1; i <= n; i++) {
    name = order[i]
    if (have[1, name] && !have[2, name]) printf "%-48s only in old run\n", name
    if (!have[1, name] && have[2, name]) printf "%-48s only in new run\n", name
  }
}' "$old" "$new"
