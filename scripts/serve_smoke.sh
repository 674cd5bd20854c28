#!/usr/bin/env bash
# End-to-end smoke test of the placement service: build adrias-serve and the
# adrias-bench load generator, start the service (fast-trained models, pprof
# listener on), wait until /healthz answers, drive 100 requests through the
# load generator, check the metrics / trace / decision-audit endpoints, then
# SIGTERM and require a clean drain. With ARTIFACT_DIR set, the observability
# scrapes are saved there for upload as a CI artifact.
set -euo pipefail

cd "$(dirname "$0")/.."
port="${PORT:-7741}"
dbgport="${DEBUG_PORT:-7742}"
tmp="$(mktemp -d)"
scrapes="${ARTIFACT_DIR:-$tmp/scrapes}"
mkdir -p "$scrapes"
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/adrias-serve" ./cmd/adrias-serve
go build -o "$tmp/adrias-bench" ./cmd/adrias-bench

"$tmp/adrias-serve" -listen "127.0.0.1:$port" -tick 500ms \
  -debug-addr "127.0.0.1:$dbgport" >"$tmp/serve.log" 2>&1 &
pid=$!

ready=""
for _ in $(seq 1 120); do
  if curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
    ready=1
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "adrias-serve exited before becoming healthy:" >&2
    cat "$tmp/serve.log" >&2
    exit 1
  fi
  sleep 1
done
if [ -z "$ready" ]; then
  echo "adrias-serve did not become healthy in time:" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi

# 100 requests, mixed application classes; the generator exits non-zero on
# any transport error or 5xx. -dump-decisions exercises the audit-log
# read-out path against the live server.
"$tmp/adrias-bench" -target "http://127.0.0.1:$port" -n 100 -conc 8 \
  -dump-decisions | tee "$scrapes/loadgen.txt"

# All 100 must have been served OK, and the admission pipeline must have
# actually coalesced them into batches. Checks grep the saved scrape files,
# not `echo "$var" | grep -q`: grep -q exits at the first hit and under
# pipefail the echo's SIGPIPE would read as a spurious failure once the
# payload outgrows the pipe buffer.
curl -fsS "http://127.0.0.1:$port/metrics" >"$scrapes/metrics.txt"
grep -q 'adrias_serve_requests_total{outcome="ok"} 100' "$scrapes/metrics.txt" || {
  echo "expected 100 ok requests in /metrics:" >&2
  grep adrias_serve_requests_total "$scrapes/metrics.txt" >&2
  exit 1
}
grep -q '^adrias_serve_batches_total' "$scrapes/metrics.txt" || {
  echo "missing batch counter in /metrics" >&2
  exit 1
}

# One scrape must carry series from serve, bus, models, thymesis, and the
# Go runtime at once — the repo-wide registry is wired, not just serve's.
for series in adrias_serve_queue_wait_seconds_count adrias_serve_predict_memo_hits_total \
  adrias_serve_predict_memo_misses_total adrias_bus_published_total \
  adrias_models_inference_batches_total adrias_thymesis_flits_tx_total \
  adrias_go_goroutines; do
  grep -q "^$series" "$scrapes/metrics.txt" || {
    echo "missing $series in /metrics" >&2
    exit 1
  }
done

# Every request is traceable: the trace ring must hold the pipeline stages
# (queue wait and coalescing per request, the decide spans per batch, the
# model spans on the batches that computed — a batch the prediction memo
# answered records none, and 100 requests at a 500 ms tick include both).
curl -fsS "http://127.0.0.1:$port/debug/traces" >"$scrapes/traces.json"
for stage in queue_wait coalesce signature_lookup sysstate_predict \
  perf_predict decide; do
  grep -q "\"$stage\"" "$scrapes/traces.json" || {
    echo "missing stage $stage in /debug/traces" >&2
    exit 1
  }
done

# Every decision is audited with the predictions that produced it.
curl -fsS "http://127.0.0.1:$port/debug/decisions" >"$scrapes/decisions.json"
for field in trace_id pred_local_s beta reason; do
  grep -q "\"$field\"" "$scrapes/decisions.json" || {
    echo "missing field $field in /debug/decisions" >&2
    exit 1
  }
done

# The pprof surface answers on the separate debug listener.
curl -fsS "http://127.0.0.1:$dbgport/debug/pprof/" >/dev/null || {
  echo "pprof index not served on the debug listener" >&2
  exit 1
}

kill -TERM "$pid"
wait "$pid" # non-zero (under set -e) if the drain was not clean
grep -q "served 100 ok" "$tmp/serve.log" || {
  echo "drain report missing from server log:" >&2
  cat "$tmp/serve.log" >&2
  exit 1
}
pid=""
echo "serve smoke OK"
