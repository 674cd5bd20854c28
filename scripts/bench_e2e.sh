#!/usr/bin/env bash
# bench_e2e.sh — the end-to-end latency gate. Runs the benchmark module's own
# tests, a short replay-quality, then a short mixed-rack (open-loop Poisson
# arrivals at 300/s: most requests reach an idle batcher) against the real
# adrias-serve binary, and
# fails unless the result line reports correct output, no failed request, and
# a median latency under MAX_P50_MS (default 1 ms). An isolated placement
# costs about 0.3 ms when nothing makes it wait and 1.2+ ms the moment every
# arrival is held for company again (2.5 ms under the old 2 ms window) — the
# gap is wide enough that a noisy runner cannot blur it. lone-dryrun cannot
# be the probe: its one caller sends back to back, the one pattern the
# batcher does pace (serve.loneSpacing), so its median is ~1.2 ms by design.
# A short replay-quality runs first (the simulated testbed under all-local
# and Adrias, no server): it must report correct output and no failed
# placement, which is where a testbed change that breaks the replay shows.
#
# Env: SECONDS_PER_RUN (default 4), SEED (default 1), MAX_P50_MS (default 1).
set -euo pipefail
cd "$(dirname "$0")/.."

secs="${SECONDS_PER_RUN:-4}"
seed="${SEED:-1}"
max="${MAX_P50_MS:-1}"

go test -C benchmark ./...

# run_workload NAME runs one workload and leaves its result line in $line,
# failing unless it reports correct output and no failed operation.
run_workload() {
  local out
  out="$(bash benchmark/run.sh --workload "$1" --seed "$seed" --seconds "$secs" --trace 0)"
  echo "$out"
  line="$(echo "$out" | tail -n 1)"
  case "$line" in
    *'"correct":true'*) ;;
    *) echo "bench-e2e: $1 result line does not report \"correct\":true" >&2; exit 1 ;;
  esac
  case "$line" in
    *'"failed":0,'*) ;;
    *) echo "bench-e2e: $1 result line reports failed operations" >&2; exit 1 ;;
  esac
}

run_workload replay-quality
run_workload mixed-rack
p50="$(echo "$line" | sed -n 's/.*"p50_ms":{"value":\([0-9.eE+-]*\).*/\1/p')"
if [ -z "$p50" ]; then
  echo "bench-e2e: no p50_ms in the result line" >&2
  exit 1
fi
awk -v p="$p50" -v max="$max" 'BEGIN {
  printf "bench-e2e: mixed-rack p50 %.4f ms (limit %s ms)\n", p, max
  exit (p + 0 < max + 0) ? 0 : 1
}' || {
  echo "bench-e2e: isolated placements are waiting on something — is the batcher holding every arrival again?" >&2
  exit 1
}
echo "bench-e2e OK"
