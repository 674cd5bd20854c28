# Mirrors .github/workflows/ci.yml: each target is one CI job, so a green
# `make ci` locally means a green pipeline.

GO ?= go

.PHONY: build test race bench bench-gate bench-e2e fmt vet serve-smoke chaos-smoke slo-smoke shard-smoke learn-smoke learn-shard-smoke trace-overhead ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: one iteration of the CI smoke benchmarks (full suite: make bench BENCH=.)
BENCH ?= ^(BenchmarkTable1SystemState|BenchmarkPerfFitWorkers)$$
bench:
	$(GO) test -run='^$$' -bench='$(BENCH)' -benchtime=1x .

## bench-gate: the inference-fast-path gate — batch-8 benchmarks of both
## predictors at one core plus the decision-flip contract replay; writes
## BENCH_quantfast.json and fails on >0 allocs/op (serve hot path float and
## int8, single-app float Decide, testbed tick) or a flip rate > 1%; the
## quant/float ratio is recorded, not gated. Tunables: FLIP_BUDGET,
## BENCHTIME.
bench-gate:
	./scripts/bench_gate.sh

## bench-e2e: the end-to-end gate — the benchmark module's tests, a 4 s
## replay-quality and a 4 s mixed-rack against the real adrias-serve; fails
## unless both outputs are correct, nothing failed, and the mixed-rack
## p50 < 1 ms (MAX_P50_MS).
bench-e2e:
	./scripts/bench_e2e.sh

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

## serve-smoke: end-to-end smoke of the placement service (adrias-serve +
## load generator): train fast models, serve, 100 requests, observability
## scrapes (/metrics, /debug/traces, /debug/decisions, pprof), clean drain.
serve-smoke:
	./scripts/serve_smoke.sh

## chaos-smoke: end-to-end chaos test of the graceful-degradation layer:
## serve with a deterministic fault schedule armed, sustain load through the
## adrias-bench chaos harness, require the circuit breaker to trip and
## recover with valid fallback placements throughout.
chaos-smoke:
	./scripts/chaos_smoke.sh

## slo-smoke: end-to-end smoke of the SLO/alerting layer: serve with a
## fault schedule, tightened burn-rate windows, and the wide-event JSONL
## log armed; require downgrade-rate to page and clear on /debug/slo
## (bench -assert-slo), the transition pair on /metrics, and committed
## admissions in the wide-event ring and log file.
slo-smoke:
	./scripts/slo_smoke.sh

## shard-smoke: end-to-end smoke of the scale-out placement tier: 4 replica
## deciders over a 2-node rack with a chaos schedule armed, concurrent
## deploying load, per-node occupancy on /metrics, consistent
## commit-conflict accounting, cross-rack placements in the audit log.
shard-smoke:
	./scripts/shard_smoke.sh

## learn-smoke: end-to-end smoke of the online learning loop: serve with
## -learn and a drifting ambient ramp, deploy placements so outcomes join
## back, require drift → retrain → shadow win → audited hot swap.
learn-smoke:
	./scripts/learn_smoke.sh

## learn-shard-smoke: end-to-end smoke of generation-aware shards: serve
## with -learn AND -replicas 4 -nodes 2, induce drift, and require the
## promoted generation to reach every replica decider within one batch.
learn-shard-smoke:
	./scripts/learn_shard_smoke.sh

## trace-overhead: gate span recording on the batch-8 placement path at
## ≤ MAX_OVERHEAD_PCT (default 5) percent over the untraced baseline.
trace-overhead:
	./scripts/trace_overhead.sh

ci: build fmt vet test race bench bench-gate bench-e2e serve-smoke chaos-smoke slo-smoke shard-smoke learn-smoke learn-shard-smoke trace-overhead
