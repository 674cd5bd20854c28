#!/usr/bin/env bash
# trace_overhead.sh — measure what live span recording costs on the serve
# placement path. Runs BenchmarkPlaceBatchSizes (no recorder in the context,
# so obs.StartSpan no-ops) and BenchmarkPlaceBatchSizesTraced (live
# SpanRecorder per batch) over the identical workload, prints a benchdiff
# report, and fails when the traced batch-8 case is more than
# MAX_OVERHEAD_PCT (default 5) percent slower than the untraced one.
#
# Both move the monitoring window before every batch, so every batch runs the
# models and records their spans — a batch the prediction memo answers records
# no model span, so a static window would leave nothing to measure. The hit
# path (BenchmarkPlaceBatchSizesWarm) is printed beside the gate for the
# record, not gated.
#
# Both benchmarks run -count times and the gate compares the per-variant
# minima, which filters scheduler noise out of low-iteration CI boxes.
set -euo pipefail
cd "$(dirname "$0")/.."

max="${MAX_OVERHEAD_PCT:-5}"
benchtime="${BENCHTIME:-200x}"
count="${COUNT:-5}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go test -run='^$' -cpu=1 -benchtime="$benchtime" -count="$count" \
  -bench='^BenchmarkPlaceBatchSizes$' ./internal/serve | tee "$tmp/plain.txt"
go test -run='^$' -cpu=1 -benchtime="$benchtime" -count="$count" \
  -bench='^BenchmarkPlaceBatchSizesTraced$' ./internal/serve | tee "$tmp/traced.txt"

# Side-by-side report: rename the traced results so benchdiff pairs them
# with their untraced counterparts.
sed 's/BenchmarkPlaceBatchSizesTraced/BenchmarkPlaceBatchSizes/' \
  "$tmp/traced.txt" >"$tmp/traced-renamed.txt"
./scripts/benchdiff.sh "$tmp/plain.txt" "$tmp/traced-renamed.txt"

min_ns() { # min_ns file benchmark-pattern → smallest ns/op across -count runs
  awk -v pat="$2" '
    $1 ~ pat { for (i = 2; i <= NF; i++) if ($i == "ns/op" && (best == "" || $(i-1) + 0 < best + 0)) best = $(i-1) }
    END { print best }' "$1"
}
plain="$(min_ns "$tmp/plain.txt" '^BenchmarkPlaceBatchSizes/batch-8$')"
traced="$(min_ns "$tmp/traced.txt" '^BenchmarkPlaceBatchSizesTraced/batch-8$')"
if [ -z "$plain" ] || [ -z "$traced" ]; then
  echo "trace_overhead: batch-8 results missing (plain='$plain' traced='$traced')" >&2
  exit 1
fi

awk -v p="$plain" -v t="$traced" -v max="$max" 'BEGIN {
  pct = (t - p) * 100 / p
  printf "batch-8: untraced %.0f ns/op, traced %.0f ns/op → %+.2f%% (budget %s%%)\n", p, t, pct, max
  exit (pct > max + 0) ? 1 : 0
}' || {
  echo "trace_overhead: span recording exceeds the batch-8 overhead budget" >&2
  exit 1
}
go test -run='^$' -cpu=1 -benchtime="$benchtime" \
  -bench='^BenchmarkPlaceBatchSizesWarm$' ./internal/serve | tee "$tmp/warm.txt"
echo "batch-8 memo-hit path: $(min_ns "$tmp/warm.txt" '^BenchmarkPlaceBatchSizesWarm/batch-8$') ns/op (untraced miss path: $plain ns/op)"
echo "trace overhead OK"
