package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adrias/internal/models"
)

type stubHealth struct {
	sigs *SignatureCache
}

func (s stubHealth) Snapshot() EngineStats {
	return EngineStats{Ready: true, SimTime: 42, Running: 3, Completed: 7, Decisions: 5}
}
func (s stubHealth) Signatures() *SignatureCache { return s.sigs }

func newTestServer(t *testing.T, eng Engine, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	svc := NewService(eng, cfg)
	h := stubHealth{sigs: NewSignatureCache(models.NewSignatureStore(6), 0)}
	ts := httptest.NewServer(NewHandler(svc, h))
	t.Cleanup(func() {
		ts.Close()
		closeAll(t, svc)
	})
	return ts, svc
}

// postPlaceAsync fires a request whose outcome the test does not check —
// used to wedge the gated engine from a goroutine.
func postPlaceAsync(url string, body string) {
	resp, err := http.Post(url+"/v1/place", "application/json", strings.NewReader(body))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func postPlace(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/place", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, m
}

func TestHTTPPlace(t *testing.T) {
	ts, _ := newTestServer(t, &fakeEngine{}, Config{})

	resp, m := postPlace(t, ts.URL, `{"app":"gmm"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, m)
	}
	if m["app"] != "gmm" || m["tier"] != "remote" {
		t.Errorf("body = %v", m)
	}

	// Unknown app → 400 with an error body.
	resp, m = postPlace(t, ts.URL, `{"app":"unknown"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown app status = %d", resp.StatusCode)
	}
	if m["error"] == "" {
		t.Error("missing error body")
	}

	// Missing app and malformed JSON → 400.
	if resp, _ := postPlace(t, ts.URL, `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty app status = %d", resp.StatusCode)
	}
	if resp, _ := postPlace(t, ts.URL, `{nope`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}

	// GET on the place route → 405 from the method-aware mux.
	getResp, err := http.Get(ts.URL + "/v1/place")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/place status = %d", getResp.StatusCode)
	}
}

func TestHTTPDeadline(t *testing.T) {
	eng := newGatedEngine()
	ts, _ := newTestServer(t, eng, Config{MaxBatch: 1})
	defer close(eng.gate)

	// Wedge the engine with one request so the next one times out queued.
	go postPlaceAsync(ts.URL, `{"app":"a"}`)
	<-eng.entered

	resp, _ := postPlace(t, ts.URL, `{"app":"b","deadline_ms":40}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("deadline status = %d, want 504", resp.StatusCode)
	}
}

func TestHTTPOverload(t *testing.T) {
	eng := newGatedEngine()
	ts, svc := newTestServer(t, eng,
		Config{MaxBatch: 1, QueueDepth: 1, DefaultTimeout: 30 * time.Second})
	defer close(eng.gate)

	// One request held inside the engine, one filling the queue.
	go postPlaceAsync(ts.URL, `{"app":"a"}`)
	<-eng.entered
	admit(t, svc, context.Background(), PlaceRequest{App: "b"})

	resp, _ := postPlace(t, ts.URL, `{"app":"c"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overload status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestHTTPHealthz(t *testing.T) {
	ts, _ := newTestServer(t, &fakeEngine{}, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || !h.Ready || h.SimTime != 42 {
		t.Errorf("healthz = %d %+v", resp.StatusCode, h)
	}
}

func TestHTTPMetrics(t *testing.T) {
	ts, _ := newTestServer(t, &fakeEngine{}, Config{})
	// Generate one success and one error so both counters are non-zero.
	postPlace(t, ts.URL, `{"app":"gmm"}`)
	postPlace(t, ts.URL, `{"app":"unknown"}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		`adrias_serve_requests_total{outcome="ok"} 1`,
		`adrias_serve_requests_total{outcome="error"} 1`,
		"adrias_serve_batches_total",
		"adrias_serve_queue_depth",
		`adrias_serve_placements_total{tier="remote"} 1`,
		"adrias_serve_request_duration_seconds_bucket",
		"adrias_serve_request_duration_seconds_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, body)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
}
