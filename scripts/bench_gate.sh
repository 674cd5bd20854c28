#!/usr/bin/env bash
# bench_gate.sh — the quantized-fast-path benchmark gate.
#
# Runs the batch-8 inference and placement benchmarks at one core plus the
# decision-flip contract suite, writes machine-readable results to
# BENCH_quantfast.json (ns/op, B/op, allocs/op per benchmark, measured
# decision-flip rate, quant/float speedups), and FAILS unless:
#
#   * steady-state allocs/op == 0 on the quantized predict benchmark
#     (BenchmarkPerfPredictEachQuantB8), on the serve hot path with either
#     predictor (BenchmarkServeHotPathQuantB8, BenchmarkServeHotPathFloatB8)
#     and on a single-application float Decide against a moved window
#     (BenchmarkDecideSingleMiss, the scenario replay's unit of inference);
#   * the measured decision-flip rate is ≤ FLIP_BUDGET (default 0.01);
#   * the armed-observability hot path (SLO engine + wide-event sink,
#     BenchmarkServeHotPathQuantB8Events) also holds 0 allocs/op and costs
#     ≤ EVENTS_BUDGET× the bare quantized path (default 1.05 — within 5%);
#   * the sharded placement tier scales: 4 replica deciders sustain
#     ≥ MIN_SCALE× the single-replica throughput (default 2.5) on the
#     BenchmarkPlaceThroughputR{1,2,4} series at -cpu=4. The scaling gate
#     only applies when the bench box has ≥ 4 cores — replicas cannot
#     outrun the clock on fewer — but the honest numbers (and the core
#     count) are recorded either way;
#   * generation-aware shards are free when idle: with the learning loop
#     armed but not swapping, the per-batch generation check costs the R4
#     tier ≤ LEARN_BUDGET× the learn-off time (default 1.05 — within 5%,
#     BenchmarkPlaceThroughputR4Learn vs BenchmarkPlaceThroughputR4). Like
#     the scaling gate, it only applies with ≥ 4 cores — an oversubscribed
#     box measures scheduler noise, not the check — but the honest ratio
#     is recorded either way.
#
#   * a steady-state tick of the simulated testbed allocates nothing
#     (BenchmarkClusterTick12, recorded as cluster_tick_allocs).
#
# The quant/float ratios (serve_quant_speedup, predict_quant_speedup) are
# recorded, not gated: since the float models predict through the same
# arenas and signature cache as their int8 twins the two paths cost about the
# same, and the ratio no longer measures anything a PR can regress.
#
# BenchmarkDecideSingleMiss and the two serve hot-path benchmarks also run
# six times each at 2000 iterations; the medians and their min–max spread are
# recorded as decide_single_us / serve_float_b8_us / serve_quant_b8_us (a
# 50-iteration single run of a 50 µs operation is mostly warm-up).
#
# The offline training phase every server boot runs (BenchmarkTrainFast:
# adrias.Train(FastOptions()), at the box's full core count) also runs six
# times, one iteration each; its median and spread are recorded as
# train_fast_s / train_fast_s_spread and its worst allocation count as
# train_fast_allocs — recorded, not gated.
#
# The simulated testbed's cost also runs six times at one core, because a
# single run of it swung 1.62 → 2.47 ms between two unchanged gate runs: one
# replayed 900 s scenario (BenchmarkScenarioRun900, 200 iterations) as the
# median scenario_run_ms, its spread and its worst B/op as
# scenario_run_bytes; and the replay's unit of work, one held-out scenario
# all-local then under Adrias (BenchmarkReplayPair, 50 iterations), as the
# median replay_pair_ms and its spread. All recorded, not gated.
#
# The serve hot-path benchmarks move the monitoring window before every batch,
# so the gates above keep measuring inference, not the per-window prediction
# memo. Their ...Warm twins (window left alone, every query a memo hit) run
# alongside and are recorded in the same JSON, with the hit-vs-miss ratio as
# serve_memo_hit_speedup — recorded, not gated.
#
# Besides OUT, the results are mirrored into a numbered per-PR artifact
# BENCH_<n>.json (n from PR_NUM, else one past the highest number already
# present) so `benchdiff.sh` with no arguments can compare the latest two
# PRs' gate numbers.
#
# Env: OUT (default BENCH_quantfast.json), BENCHTIME (default 50x),
#      FLIP_BUDGET, MIN_SCALE, EVENTS_BUDGET, LEARN_BUDGET,
#      PR_NUM.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_quantfast.json}"
BENCHTIME="${BENCHTIME:-50x}"
FLIP_BUDGET="${FLIP_BUDGET:-0.01}"
MIN_SCALE="${MIN_SCALE:-2.5}"
EVENTS_BUDGET="${EVENTS_BUDGET:-1.05}"
LEARN_BUDGET="${LEARN_BUDGET:-1.05}"
NCPU="$(nproc 2>/dev/null || echo 1)"

bench_txt="$(mktemp)"
med_txt="$(mktemp)"
flip_txt="$(mktemp)"
trap 'rm -f "$bench_txt" "$med_txt" "$flip_txt"' EXIT

echo "== bench-gate: batch-8 quantized benchmarks (one core, $BENCHTIME) =="
go test -run='^$' -cpu=1 -benchtime="$BENCHTIME" \
  -bench='^(BenchmarkPerfPredictEachFloatB8|BenchmarkPerfPredictEachQuantB8|BenchmarkServeHotPathFloatB8|BenchmarkServeHotPathQuantB8|BenchmarkServeHotPathQuantB8Events|BenchmarkServeHotPathFloatB8Warm|BenchmarkServeHotPathQuantB8Warm)$' \
  ./internal/models ./internal/serve | tee "$bench_txt"

echo "== bench-gate: single-app Decide and batch-8 serve path, median of 6 (one core, 2000x) =="
go test -run='^$' -cpu=1 -benchtime=2000x -count=6 \
  -bench='^BenchmarkDecideSingleMiss$' . | tee "$med_txt"
go test -run='^$' -cpu=1 -benchtime=2000x -count=6 \
  -bench='^(BenchmarkServeHotPathFloatB8|BenchmarkServeHotPathQuantB8)$' \
  ./internal/serve | tee -a "$med_txt"

echo "== bench-gate: offline training, median of 6 (all cores, 1x) =="
go test -run='^$' -benchtime=1x -count=6 \
  -bench='^BenchmarkTrainFast$' . | tee -a "$med_txt"

echo "== bench-gate: simulated testbed and replay pair, median of 6 (one core) =="
go test -run='^$' -cpu=1 -benchtime=200x -count=6 \
  -bench='^BenchmarkScenarioRun900$' ./internal/scenario | tee -a "$med_txt"
go test -run='^$' -cpu=1 -benchtime=50x -count=6 \
  -bench='^BenchmarkReplayPair$' . | tee -a "$med_txt"

echo "== bench-gate: sharded placement throughput (replicas 1/2/4, -cpu=4) =="
go test -run='^$' -cpu=4 -benchtime="$BENCHTIME" \
  -bench='^BenchmarkPlaceThroughputR(1|2|4|4Learn)$' \
  ./internal/serve | tee -a "$bench_txt"

echo "== bench-gate: simulated testbed (steady-state tick) =="
go test -run='^$' -cpu=1 -benchtime="$BENCHTIME" \
  -bench='^BenchmarkClusterTick12$' ./internal/cluster | tee -a "$bench_txt"

echo "== bench-gate: decision-flip contract (fast scale) =="
go run ./cmd/adrias-bench -scale fast -quant | tee "$flip_txt"

flip_rate="$(awk '/decision_flip_rate/ { print $2 }' "$flip_txt" | tail -1)"
if [ -z "$flip_rate" ]; then
  echo "bench-gate: no decision_flip_rate line in the quantflip report" >&2
  exit 1
fi

# Build BENCH_quantfast.json and apply the gates in one awk pass over the
# benchmark lines. Names are stripped of the -<procs> suffix go test adds.
awk -v out="$OUT" -v flip="$flip_rate" -v flip_budget="$FLIP_BUDGET" \
    -v min_scale="$MIN_SCALE" -v med="$med_txt" \
    -v events_budget="$EVENTS_BUDGET" -v learn_budget="$LEARN_BUDGET" \
    -v ncpu="$NCPU" '
# The -count=6 runs: every ns/op kept for the median, the worst B/op and
# allocs/op.
FILENAME == med {
  if ($0 !~ /^Benchmark/) next
  name = $1
  sub(/-[0-9]+$/, "", name)
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op") mv[name, ++mc[name]] = $(i - 1) + 0
    if ($i == "B/op" && (!(name in mb) || $(i - 1) + 0 > mb[name])) mb[name] = $(i - 1) + 0
    if ($i == "allocs/op" && (!(name in ma) || $(i - 1) + 0 > ma[name])) ma[name] = $(i - 1) + 0
  }
  next
}
# median_us sorts the runs of one benchmark in place and returns their
# median in µs, leaving the extremes in lo_us / hi_us; "null" when none ran.
function median_us(name,    c, i, j, t) {
  c = mc[name]
  if (c == 0) { lo_us = hi_us = "null"; return "null" }
  for (i = 2; i <= c; i++)
    for (j = i; j > 1 && mv[name, j - 1] > mv[name, j]; j--) {
      t = mv[name, j]; mv[name, j] = mv[name, j - 1]; mv[name, j - 1] = t
    }
  lo_us = sprintf("%.3f", mv[name, 1] / 1000); hi_us = sprintf("%.3f", mv[name, c] / 1000)
  if (c % 2) return sprintf("%.3f", mv[name, (c + 1) / 2] / 1000)
  return sprintf("%.3f", (mv[name, c / 2] + mv[name, c / 2 + 1]) / 2000)
}
# ms converts a median_us result to milliseconds, keeping "null".
function ms(us) { return (us == "null") ? "null" : sprintf("%.3f", us / 1000) }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  ns[name] = "null"; bop[name] = "null"; alloc[name] = "null"
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op")        ns[name] = $(i - 1)
    if ($i == "B/op")         bop[name] = $(i - 1)
    if ($i == "allocs/op")    alloc[name] = $(i - 1)
    if ($i == "placements/s") pls[name] = $(i - 1)
  }
  if (!(name in seen)) { seen[name] = 1; order[++n] = name }
}
END {
  printf "{\n  \"benchmarks\": {\n" > out
  for (i = 1; i <= n; i++) {
    name = order[i]
    printf "    \"%s\": {\"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
      name, ns[name], bop[name], alloc[name], (i < n ? "," : "") > out
  }
  printf "  },\n" > out

  fq = ns["BenchmarkPerfPredictEachFloatB8"];  qq = ns["BenchmarkPerfPredictEachQuantB8"]
  fs = ns["BenchmarkServeHotPathFloatB8"];     qs = ns["BenchmarkServeHotPathQuantB8"]
  predict_speedup = (fq != "null" && qq != "null" && qq + 0 > 0) ? fq / qq : 0
  serve_speedup   = (fs != "null" && qs != "null" && qs + 0 > 0) ? fs / qs : 0
  printf "  \"predict_quant_speedup\": %.3f,\n", predict_speedup > out
  printf "  \"serve_quant_speedup\": %.3f,\n", serve_speedup > out
  qw = ns["BenchmarkServeHotPathQuantB8Warm"]
  memo_hit_speedup = (qs != "null" && qw != "null" && qw + 0 > 0) ? qs / qw : 0
  printf "  \"serve_memo_hit_speedup\": %.3f,\n", memo_hit_speedup > out
  printf "  \"decision_flip_rate\": %s,\n", flip > out
  printf "  \"flip_budget\": %s,\n", flip_budget > out
  m = median_us("BenchmarkDecideSingleMiss")
  printf "  \"decide_single_us\": %s,\n", m > out
  printf "  \"decide_single_us_spread\": [%s, %s],\n", lo_us, hi_us > out
  da = ("BenchmarkDecideSingleMiss" in ma) ? ma["BenchmarkDecideSingleMiss"] : "null"
  printf "  \"decide_single_allocs\": %s,\n", da > out
  m = median_us("BenchmarkServeHotPathFloatB8")
  printf "  \"serve_float_b8_us\": %s,\n", m > out
  printf "  \"serve_float_b8_us_spread\": [%s, %s],\n", lo_us, hi_us > out
  m = median_us("BenchmarkServeHotPathQuantB8")
  printf "  \"serve_quant_b8_us\": %s,\n", m > out
  printf "  \"serve_quant_b8_us_spread\": [%s, %s],\n", lo_us, hi_us > out
  printf "  \"median_runs\": %d,\n", mc["BenchmarkDecideSingleMiss"] > out
  m = median_us("BenchmarkTrainFast")
  printf "  \"train_fast_s\": %s,\n", (m == "null") ? "null" : sprintf("%.3f", m / 1e6) > out
  printf "  \"train_fast_s_spread\": [%s, %s],\n", (lo_us == "null") ? "null" : sprintf("%.3f", lo_us / 1e6), \
    (hi_us == "null") ? "null" : sprintf("%.3f", hi_us / 1e6) > out
  tfa = ("BenchmarkTrainFast" in ma) ? ma["BenchmarkTrainFast"] : "null"
  printf "  \"train_fast_allocs\": %s,\n", tfa > out

  qe = ns["BenchmarkServeHotPathQuantB8Events"]
  events_overhead = (qs != "null" && qe != "null" && qs + 0 > 0) ? qe / qs : 0
  printf "  \"serve_events_overhead\": %.3f,\n", events_overhead > out
  printf "  \"events_budget\": %s,\n", events_budget > out

  r1 = ("BenchmarkPlaceThroughputR1" in pls) ? pls["BenchmarkPlaceThroughputR1"] + 0 : 0
  r2 = ("BenchmarkPlaceThroughputR2" in pls) ? pls["BenchmarkPlaceThroughputR2"] + 0 : 0
  r4 = ("BenchmarkPlaceThroughputR4" in pls) ? pls["BenchmarkPlaceThroughputR4"] + 0 : 0
  scale4 = (r1 > 0) ? r4 / r1 : 0
  printf "  \"place_throughput_r1\": %.0f,\n", r1 > out
  printf "  \"place_throughput_r2\": %.0f,\n", r2 > out
  printf "  \"place_throughput_r4\": %.0f,\n", r4 > out
  printf "  \"place_scaling_r4\": %.3f,\n", scale4 > out
  printf "  \"min_scale\": %s,\n", min_scale > out
  r4l = ("BenchmarkPlaceThroughputR4Learn" in pls) ? pls["BenchmarkPlaceThroughputR4Learn"] + 0 : 0
  nsr4 = ns["BenchmarkPlaceThroughputR4"]; nsr4l = ns["BenchmarkPlaceThroughputR4Learn"]
  learn_overhead = (nsr4 != "null" && nsr4l != "null" && nsr4 + 0 > 0) ? nsr4l / nsr4 : 0
  printf "  \"place_throughput_r4_learn\": %.0f,\n", r4l > out
  printf "  \"place_learn_overhead\": %.3f,\n", learn_overhead > out
  printf "  \"learn_budget\": %s,\n", learn_budget > out
  m = median_us("BenchmarkScenarioRun900")
  printf "  \"scenario_run_ms\": %s,\n", ms(m) > out
  printf "  \"scenario_run_ms_spread\": [%s, %s],\n", ms(lo_us), ms(hi_us) > out
  sb = ("BenchmarkScenarioRun900" in mb) ? mb["BenchmarkScenarioRun900"] : "null"
  printf "  \"scenario_run_bytes\": %s,\n", sb > out
  m = median_us("BenchmarkReplayPair")
  printf "  \"replay_pair_ms\": %s,\n", ms(m) > out
  printf "  \"replay_pair_ms_spread\": [%s, %s],\n", ms(lo_us), ms(hi_us) > out
  ta = alloc["BenchmarkClusterTick12"]
  printf "  \"cluster_tick_allocs\": %s,\n", (ta == "") ? "null" : ta > out
  printf "  \"bench_cpus\": %d\n}\n", ncpu > out
  close(out)

  failed = 0
  gated["BenchmarkPerfPredictEachQuantB8"] = 1
  gated["BenchmarkServeHotPathQuantB8"] = 1
  gated["BenchmarkServeHotPathFloatB8"] = 1
  gated["BenchmarkServeHotPathQuantB8Events"] = 1
  gated["BenchmarkClusterTick12"] = 1
  for (name in gated) {
    if (!(name in seen)) {
      printf "FAIL %s: benchmark did not run\n", name; failed = 1
    } else if (alloc[name] == "null" || alloc[name] + 0 != 0) {
      printf "FAIL %s: %s allocs/op, want 0\n", name, alloc[name]; failed = 1
    } else {
      printf "ok   %s: 0 allocs/op (%s ns/op)\n", name, ns[name]
    }
  }
  if (flip + 0 > flip_budget + 0) {
    printf "FAIL decision-flip rate %s > budget %s\n", flip, flip_budget; failed = 1
  } else {
    printf "ok   decision-flip rate %s <= budget %s\n", flip, flip_budget
  }
  if (da == "null" || da + 0 != 0) {
    printf "FAIL BenchmarkDecideSingleMiss: %s allocs/op over %d runs, want 0\n", da, mc["BenchmarkDecideSingleMiss"]; failed = 1
  } else {
    printf "ok   BenchmarkDecideSingleMiss: 0 allocs/op over %d runs\n", mc["BenchmarkDecideSingleMiss"]
  }
  printf "note serve quant speedup %.2fx, predict %.2fx (recorded, not gated)\n", serve_speedup, predict_speedup
  if (events_budget + 0 > 0) {
    if (events_overhead <= 0) {
      printf "FAIL armed-observability overhead could not be measured\n"; failed = 1
    } else if (events_overhead > events_budget + 0) {
      printf "FAIL armed-observability overhead %.3fx > budget %.2fx\n", \
        events_overhead, events_budget; failed = 1
    } else {
      printf "ok   armed-observability overhead %.3fx <= budget %.2fx\n", \
        events_overhead, events_budget
    }
  }
  if (r1 <= 0 || r4 <= 0) {
    printf "FAIL place-throughput benchmarks did not report placements/s\n"; failed = 1
  } else if (ncpu + 0 < 4 || min_scale + 0 <= 0) {
    printf "skip placement scaling gate: %d core(s) < 4 (recorded r1=%.0f r2=%.0f r4=%.0f, scaling %.2fx)\n", \
      ncpu, r1, r2, r4, scale4
  } else if (scale4 < min_scale + 0) {
    printf "FAIL placement scaling %.2fx < %.1fx (r1=%.0f r4=%.0f placements/s)\n", \
      scale4, min_scale, r1, r4; failed = 1
  } else {
    printf "ok   placement scaling %.2fx >= %.1fx (r1=%.0f r2=%.0f r4=%.0f placements/s)\n", \
      scale4, min_scale, r1, r2, r4
  }
  if (learn_budget + 0 > 0) {
    if (learn_overhead <= 0) {
      printf "FAIL learn-armed R4 overhead could not be measured\n"; failed = 1
    } else if (ncpu + 0 < 4) {
      printf "skip learn-armed R4 gate: %d core(s) < 4 (recorded overhead %.3fx, r4learn=%.0f placements/s)\n", \
        ncpu, learn_overhead, r4l
    } else if (learn_overhead > learn_budget + 0) {
      printf "FAIL learn-armed R4 overhead %.3fx > budget %.2fx (r4=%.0f r4learn=%.0f placements/s)\n", \
        learn_overhead, learn_budget, r4, r4l; failed = 1
    } else {
      printf "ok   learn-armed R4 overhead %.3fx <= budget %.2fx (r4learn=%.0f placements/s)\n", \
        learn_overhead, learn_budget, r4l
    }
  }
  exit failed
}' "$med_txt" "$bench_txt"

echo "bench-gate: wrote $OUT"

# Per-PR history: number this run's results so the trajectory across PRs is
# diffable from the repo alone (benchdiff.sh picks the latest two by number).
if [ -n "${PR_NUM:-}" ]; then
  n="$PR_NUM"
else
  last="$(ls BENCH_[0-9]*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -1)"
  n=$((${last:-0} + 1))
fi
cp "$OUT" "BENCH_${n}.json"
echo "bench-gate: wrote BENCH_${n}.json"
