package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adrias/internal/bus"
	"adrias/internal/models"
	"adrias/internal/obs"
)

// TestTraceEndToEnd is the observability acceptance test: one POST
// /v1/place must be followable end to end — its trace ID appears in
// /debug/traces with the named pipeline stages, and in /debug/decisions
// with the predicted times and β that produced the tier. The /metrics
// scrape must carry series from serve, bus, models, thymesis and the Go
// runtime at once.
func TestTraceEndToEnd(t *testing.T) {
	events := bus.New()
	eng := tinyEngine(t, EngineConfig{Seed: 41, Bus: events})
	svc := NewService(eng, Config{})
	tel := svc.Telemetry()
	eng.RegisterObs(tel)
	events.RegisterMetrics(tel.Registry)
	im := models.RegisterMetrics(tel.Registry)
	defer models.SetInstrumentation(nil)
	ts := httptest.NewServer(NewHandler(svc, eng))
	t.Cleanup(func() {
		ts.Close()
		closeAll(t, svc)
	})

	// "gmm" is warm (trained signature) so the full pipeline runs:
	// signature lookup, Ŝ forecast, perf inference, decide.
	resp, body := postPlace(t, ts.URL, `{"app":"gmm","dry_run":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place status = %d, body %v", resp.StatusCode, body)
	}
	traceID, _ := body["trace_id"].(string)
	if traceID == "" {
		t.Fatalf("response has no trace_id: %v", body)
	}
	if body["reason"] == "" {
		t.Errorf("response has no decision reason: %v", body)
	}

	getJSON := func(path string, v any) {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	var traces struct {
		Traces []struct {
			ID     string `json:"id"`
			App    string `json:"app"`
			Stages []struct {
				Name  string  `json:"name"`
				DurMs float64 `json:"dur_ms"`
			} `json:"stages"`
		} `json:"traces"`
		Summary map[string]obs.StageStats `json:"stage_summary"`
	}
	getJSON("/debug/traces?id="+traceID, &traces)
	if len(traces.Traces) != 1 || traces.Traces[0].App != "gmm" {
		t.Fatalf("trace lookup: %+v", traces.Traces)
	}
	stages := map[string]bool{}
	for _, s := range traces.Traces[0].Stages {
		stages[s.Name] = true
	}
	for _, want := range []string{"queue_wait", "coalesce", "signature_lookup",
		"sysstate_predict", "perf_predict", "decide"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (got %v)", want, stages)
		}
	}
	if len(stages) < 4 {
		t.Fatalf("trace has %d named stages, want ≥ 4", len(stages))
	}

	var decisions struct {
		Decisions []obs.DecisionRecord `json:"decisions"`
	}
	getJSON("/debug/decisions?trace_id="+traceID, &decisions)
	if len(decisions.Decisions) != 1 {
		t.Fatalf("decision lookup: %+v", decisions.Decisions)
	}
	d := decisions.Decisions[0]
	if d.App != "gmm" || d.Reason == "" || d.Beta <= 0 {
		t.Errorf("audit record incomplete: %+v", d)
	}
	if d.PredLocalS <= 0 || d.PredRemoteS <= 0 {
		t.Errorf("audit record missing predicted times: %+v", d)
	}

	// The decision also went out on the bus (no subscriber → published only).
	if events.Published() == 0 {
		t.Error("no bus publishes for a placed decision")
	}
	if im.Batches.Value() == 0 {
		t.Error("model inference instrumentation saw no batches")
	}

	// One scrape, series from ≥ 4 packages.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(raw)
	for _, want := range []string{
		`adrias_serve_requests_total{outcome="ok"} 1`, // serve, names unchanged
		"adrias_serve_queue_wait_seconds_count",
		"adrias_bus_published_total",
		"adrias_models_inference_batches_total",
		"adrias_thymesis_flits_tx_total",
		"adrias_go_goroutines",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestQueueWaitMetric: every served request contributes one queue-wait
// observation, kept separate from the end-to-end latency histogram.
func TestQueueWaitMetric(t *testing.T) {
	ts, svc := newTestServer(t, &fakeEngine{}, Config{})
	postPlace(t, ts.URL, `{"app":"gmm"}`)
	postPlace(t, ts.URL, `{"app":"pagerank"}`)

	met := svc.Metrics()
	if got := met.QueueWait.Count(); got != 2 {
		t.Errorf("queue-wait observations = %d, want 2", got)
	}
	if met.Latency.Count() != 2 {
		t.Errorf("latency observations = %d, want 2", met.Latency.Count())
	}
	// Queue wait is a share of total latency, never more.
	if met.QueueWait.Sum() > met.Latency.Sum() {
		t.Errorf("queue wait %.6fs exceeds total latency %.6fs",
			met.QueueWait.Sum(), met.Latency.Sum())
	}
}

// TestTraceIDPropagation: a caller-supplied trace ID survives the pipeline
// into the result, the tracer ring, and the HTTP response is the minted one
// otherwise.
func TestTraceIDPropagation(t *testing.T) {
	ts, svc := newTestServer(t, &fakeEngine{}, Config{})
	_, body := postPlace(t, ts.URL, `{"app":"gmm"}`)
	id, _ := body["trace_id"].(string)
	if id == "" {
		t.Fatal("no trace_id minted")
	}
	if _, ok := svc.Telemetry().Tracer.Find(id); !ok {
		t.Errorf("minted trace %s not in tracer ring", id)
	}
}
