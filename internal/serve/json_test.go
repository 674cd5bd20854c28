package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"adrias/internal/obs"
)

func stdlibEncode(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendJSONStringGolden pins the hand-rolled string escaper to
// encoding/json byte-for-byte, across shortcuts, \u00xx controls, the HTML
// trio, multibyte runes, U+2028/9 and invalid UTF-8.
func TestAppendJSONStringGolden(t *testing.T) {
	cases := []string{
		"", "plain", "with space", `quote"inside`, `back\slash`,
		"new\nline", "tab\tchar", "cr\rchar",
		"low controls \x00\x01\x1f", "bs\bff\f",
		"html <b>&amp;</b>", "accents éü", "check ✓", "emoji 😀",
		"seps \u2028 and \u2029",
		"bad \xff utf8", "truncated \xe2\x82", "lone cont \x80",
		"mixed \"\\<&>\n\u2029\xffé",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendJSONFloatGolden pins float rendering to encoding/json: shortest
// 'f' inside [1e-6, 1e21), 'e' with trimmed exponent outside.
func TestAppendJSONFloatGolden(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.25, 3.141592653589793,
		123456.789, 1e-6, 9.999999e-7, 1e-7, -2.5e-8, 1e-9, 1e-20,
		1e20, 999999999999999999999.0, 1e21, -1e21, 2.5e22,
		6.62607015e-34, math.MaxFloat64, math.SmallestNonzeroFloat64,
		0.1234567890123456789,
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%g) = %s, want %s", f, got, want)
		}
	}
}

// TestAppendPlaceResponseGolden: the full hot-path encoder must be
// byte-identical to json.Encoder.Encode — field order, omitempty, and the
// trailing newline included.
func TestAppendPlaceResponseGolden(t *testing.T) {
	cases := []PlaceHTTPResponse{
		{},
		{App: "gmm", Class: "best-effort", Tier: "local"},
		{App: "redis", Class: "latency-critical", Tier: "remote",
			PredLocalS: 12.25, PredRemoteS: 17.625, Reason: "lc-qos",
			BatchSize: 8, TraceID: "t-0001"},
		{App: "pagerank", Class: "best-effort", Tier: "remote",
			PredLocalS: 3.5e-9, PredRemoteS: 1.25e21,
			ColdStart: true, Fallback: true, Reason: "cold-start"},
		{App: "we\"ird\napp", Class: "<b>&", Tier: "bad\xffutf8",
			Reason: "seps\u2028\u2029", TraceID: "trace\tid"},
		{App: "zero-batch", Class: "best-effort", Tier: "local",
			PredLocalS: 0, BatchSize: 0},
		{App: "sharded", Class: "best-effort", Tier: "remote",
			BatchSize: 4, Node: 3, TraceID: "t-0042"},
		{App: "node-zero-omitted", Class: "latency-critical", Tier: "local",
			Node: 0, Reason: "lc-qos"},
	}
	for i, r := range cases {
		want := stdlibEncode(t, r)
		if got := appendPlaceResponse(nil, &r); !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got %s want %s", i, got, want)
		}
	}
}

// TestParsePlaceRequestFast: fast-path bodies must decode exactly as
// encoding/json does; anything outside the fast shape must be refused (the
// handler then falls back to encoding/json).
func TestParsePlaceRequestFast(t *testing.T) {
	names := newInternTable(16)
	accept := []string{
		`{"app":"redis"}`,
		`{"app":"gmm","dry_run":true}`,
		`{"app":"gmm","dry_run":false,"deadline_ms":250}`,
		`{"deadline_ms":12.5,"app":"pagerank"}`,
		`{"app":"x","deadline_ms":-3.25}`,
		"  {\n\t\"app\" : \"kmeans\" ,\r\n \"dry_run\" : true }  ",
		`{}`,
		`{"app":"dup","app":"wins"}`,
	}
	for _, body := range accept {
		var got, want PlaceHTTPRequest
		if !parsePlaceRequest([]byte(body), &got, names) {
			t.Errorf("fast path refused %q", body)
			continue
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("fixture %q: %v", body, err)
		}
		if got != want {
			t.Errorf("parse %q = %+v, want %+v", body, got, want)
		}
	}
	reject := []string{
		``, `null`, `42`, `"app"`, `[{"app":"x"}]`,
		`{"app":"esc\u0061ped"}`,  // escape in value
		`{"unknown":1,"app":"x"}`, // unknown key
		`{"app":"x","deadline_ms":1e3}` /* exponent */, `{"app":}`,
		`{"app":"x"`, `{"app":"x"}}`, `{"app":"x"} trailing`,
		`{"dry_run":yes}`, `{"app":"x","dry_run":null}`,
		`{"deadline_ms":99999999999999999999}`, // > 18 digits
	}
	var req PlaceHTTPRequest
	for _, body := range reject {
		if parsePlaceRequest([]byte(body), &req, names) {
			t.Errorf("fast path accepted %q", body)
		}
	}
}

// TestInternTable: hits are allocation-free and durable; the size cap stops
// admissions without breaking lookups.
func TestInternTable(t *testing.T) {
	tbl := newInternTable(2)
	key := []byte("gmm")
	if s := tbl.intern(key); s != "gmm" {
		t.Fatalf("intern = %q", s)
	}
	if n := testing.AllocsPerRun(100, func() { _ = tbl.intern(key) }); n > 0 {
		t.Errorf("interned lookup allocates %.1f/op, want 0", n)
	}
	tbl.intern([]byte("redis"))
	tbl.intern([]byte("overflow")) // past cap: served, not admitted
	if n := len(tbl.m); n != 2 {
		t.Errorf("table grew past its cap: %d entries", n)
	}
	if s := tbl.intern([]byte("overflow")); s != "overflow" {
		t.Errorf("post-cap intern = %q", s)
	}
}

// TestReadBody: bodies that fit reuse the pooled backing; larger ones grow.
func TestReadBody(t *testing.T) {
	buf := make([]byte, 0, 8)
	got, err := readBody(strings.NewReader("small"), buf)
	if err != nil || string(got) != "small" {
		t.Fatalf("readBody = %q, %v", got, err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("in-capacity read did not reuse the buffer")
	}
	long := strings.Repeat("x", 300)
	if got, err = readBody(strings.NewReader(long), got); err != nil || string(got) != long {
		t.Fatalf("grown readBody len=%d, %v", len(got), err)
	}
}

// TestPlaceHandlerGoldenAndFallback drives POST /v1/place over both decode
// paths and checks the response bytes are exactly what encoding/json would
// produce for the decoded value.
func TestPlaceHandlerGoldenAndFallback(t *testing.T) {
	eng := tinyEngine(t, EngineConfig{Seed: 11})
	svc := NewService(eng, Config{MaxBatch: 32})
	defer closeAll(t, svc)
	h := NewHandler(svc, eng)

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/place", strings.NewReader(body)))
		return rec
	}

	for _, body := range []string{
		`{"app":"gmm","dry_run":true}`,                  // fast path
		`{"app":"\u0067mm","dry_run":true}`,             // escape → fallback
		`{"app":"gmm","dry_run":true,"ignore_me":true}`, // unknown key → fallback
	} {
		rec := post(body)
		if rec.Code != 200 {
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body.String())
		}
		var resp PlaceHTTPResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%q: undecodable response: %v", body, err)
		}
		if resp.App != "gmm" || resp.Tier == "" {
			t.Errorf("%q: response %+v", body, resp)
		}
		if want := stdlibEncode(t, resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%q: body %q differs from encoding/json %q", body, rec.Body.Bytes(), want)
		}
	}

	if rec := post(`{"app":`); rec.Code != 400 {
		t.Errorf("syntax error: status %d", rec.Code)
	}
	if rec := post(`{"app":"nosuch","dry_run":true}`); rec.Code != 400 ||
		!strings.Contains(rec.Body.String(), "nosuch") {
		t.Errorf("unknown app: status %d body %s", rec.Code, rec.Body.String())
	}
	if rec := post(``); rec.Code != 400 {
		t.Errorf("empty body: status %d", rec.Code)
	}
}

// TestPlaceHandlerPoolHammer floods the handler from many goroutines (run
// under -race in CI) and checks every response answers its own request —
// a pooled buffer shared across in-flight requests would cross-wire the
// app fields or trip the race detector.
func TestPlaceHandlerPoolHammer(t *testing.T) {
	eng := tinyEngine(t, EngineConfig{Seed: 13})
	svc := NewService(eng, Config{MaxBatch: 64, QueueDepth: 1024})
	defer closeAll(t, svc)
	h := NewHandler(svc, eng)

	apps := []string{"gmm", "pagerank", "redis", "kmeans", "wordcount", "nweight"}
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				app := apps[(w+r)%len(apps)]
				body := fmt.Sprintf(`{"app":%q,"dry_run":true}`, app)
				if r%5 == 4 { // every fifth request exercises the fallback decoder
					body = fmt.Sprintf(`{"app":"%s","dry_run":true,"pad":%d}`, app, r)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/place", strings.NewReader(body)))
				if rec.Code != 200 {
					errs <- fmt.Errorf("worker %d round %d: status %d: %s", w, r, rec.Code, rec.Body.String())
					return
				}
				var resp PlaceHTTPResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if resp.App != app {
					errs <- fmt.Errorf("worker %d round %d: asked %q, answered %q — pooled buffer cross-wire", w, r, app, resp.App)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// hotPathFixture builds the decode→decide→encode loop the bench gate pins:
// batch-8 placement bodies through the fast parser, PlaceBatchInto, and the
// hand-rolled encoder, with every arena warm.
type hotPathFixture struct {
	eng     *SystemEngine
	names   *internTable
	bodies  [][]byte
	httpReq PlaceHTTPRequest
	reqs    []PlaceRequest
	results []PlaceResult
	out     []byte
}

func newHotPathFixtureCfg(tb testing.TB, cfg EngineConfig) *hotPathFixture {
	apps := []string{"gmm", "nweight", "pagerank", "redis", "gmm", "svm", "memcached", "linear"}
	f := &hotPathFixture{
		eng:     tinyEngine(tb, cfg),
		names:   newInternTable(256),
		reqs:    make([]PlaceRequest, len(apps)),
		results: make([]PlaceResult, len(apps)),
	}
	f.eng.decider.orch.MaxDecisions = len(apps) // decision ring full after one batch
	for _, a := range apps {
		f.bodies = append(f.bodies, []byte(`{"app":"`+a+`","dry_run":true}`))
	}
	return f
}

// perturbWindow nudges one cell of node 0's newest row in the published
// monitoring window (up on even k, back down on odd), so the next batch's
// window differs by content from the last one and the prediction memo
// misses — what a testbed tick does to the window, without a tick's cost
// inside the timed loop.
func perturbWindow(e *SystemEngine, k int) {
	w := e.view.Load().win[0]
	d := 1.0
	if k%2 == 1 {
		d = -1
	}
	w[len(w)-1][0] += d
}

// runMiss is run against a window no batch has seen: every query goes
// through the models, as the first batch after each tick does.
func (f *hotPathFixture) runMiss(tb testing.TB, ctx context.Context, k int) {
	perturbWindow(f.eng, k)
	f.run(tb, ctx)
}

func (f *hotPathFixture) run(tb testing.TB, ctx context.Context) {
	for i, body := range f.bodies {
		if !parsePlaceRequest(body, &f.httpReq, f.names) {
			tb.Fatalf("fast parse refused %s", body)
		}
		f.reqs[i] = PlaceRequest{App: f.httpReq.App, DryRun: f.httpReq.DryRun}
	}
	f.eng.PlaceBatchInto(ctx, f.reqs, f.results)
	for i := range f.results {
		r := &f.results[i]
		resp := PlaceHTTPResponse{
			App: r.App, Class: r.Class.String(), Tier: r.Tier.String(),
			PredLocalS: r.PredLocalS, PredRemoteS: r.PredRemS,
			ColdStart: r.ColdStart, Fallback: r.Fallback,
			Reason: r.Reason, BatchSize: r.BatchSize, TraceID: r.TraceID,
		}
		f.out = appendPlaceResponse(f.out[:0], &resp)
	}
}

// TestServeHotPathZeroAlloc is the hot path's headline invariant: the
// decode→decide→encode path allocates nothing in steady state, on the float
// predictor and on its int8 twin — with the SLO engine attached and the
// wide-event sink armed — both when the prediction memo answers the batch
// and when the window has moved and every query runs through the models.
// Decisions are counted toward the SLO sources on this path; wide events
// record only at commit, so the dry-run loop must stay allocation-free.
func TestServeHotPathZeroAlloc(t *testing.T) {
	for _, quantized := range []bool{true, false} {
		t.Run(fmt.Sprintf("quantized=%v", quantized), func(t *testing.T) {
			f := newHotPathFixtureCfg(t, EngineConfig{
				Seed: 21, Quantized: quantized, Events: obs.NewEventSink(64, 1, nil),
			})
			slo, err := BuildSLO(SLOConfig{}, NewMetrics(), f.eng)
			if err != nil {
				t.Fatal(err)
			}
			f.eng.AttachSLO(slo)
			ctx := context.Background()
			f.eng.Advance(1) // one SLO evaluation so the armed state is live
			f.run(t, ctx)    // warm arenas, signature cache, intern table, decision ring
			for i, r := range f.results {
				if r.Err != nil || r.Tier.String() == "" {
					t.Fatalf("result %d unusable: %+v", i, r)
				}
			}
			hits, misses := f.eng.memo.Hits.Load(), f.eng.memo.Misses.Load()
			if n := testing.AllocsPerRun(20, func() { f.run(t, ctx) }); n > 0 {
				t.Errorf("steady-state hot path allocates %.1f/op on memo hits, want 0", n)
			}
			if m := f.eng.memo.Misses.Load(); m != misses || f.eng.memo.Hits.Load() == hits {
				t.Errorf("static window: %d new misses, want every query a hit", m-misses)
			}
			hits, k := f.eng.memo.Hits.Load(), 0
			if n := testing.AllocsPerRun(20, func() { f.runMiss(t, ctx, k); k++ }); n > 0 {
				t.Errorf("steady-state hot path allocates %.1f/op on memo misses, want 0", n)
			}
			if h := f.eng.memo.Hits.Load(); h != hits || f.eng.memo.Misses.Load() == misses {
				t.Errorf("moving window: %d new hits, want every query a miss", h-hits)
			}
		})
	}
}

// benchServeHotPath times the fixture's loop. The gated benchmarks move the
// window before every batch so they keep measuring inference (a static
// window would turn them into memo-lookup benchmarks and collapse the
// quant-vs-float ratio to ~1); the Warm twins leave it alone and record the
// hit path, the cost of every batch between two ticks.
func benchServeHotPath(b *testing.B, cfg EngineConfig, warm bool) {
	f := newHotPathFixtureCfg(b, cfg)
	if cfg.Events != nil {
		slo, err := BuildSLO(SLOConfig{}, NewMetrics(), f.eng)
		if err != nil {
			b.Fatal(err)
		}
		f.eng.AttachSLO(slo)
		f.eng.Advance(1)
	}
	ctx := context.Background()
	f.run(b, ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if warm {
			f.run(b, ctx)
		} else {
			f.runMiss(b, ctx, n)
		}
	}
	b.ReportMetric(float64(len(f.reqs))*float64(b.N)/b.Elapsed().Seconds(), "placements/s")
}

// BenchmarkServeHotPathFloatB8 is the float serve hot path; the bench gate
// requires 0 allocs/op of it, as of the int8 twin.
func BenchmarkServeHotPathFloatB8(b *testing.B) {
	benchServeHotPath(b, EngineConfig{Seed: 21}, false)
}

// BenchmarkServeHotPathQuantB8 is the int8 twin of the same path: bench-gate
// requires 0 allocs/op and records its ratio to the float path.
func BenchmarkServeHotPathQuantB8(b *testing.B) {
	benchServeHotPath(b, EngineConfig{Seed: 21, Quantized: true}, false)
}

// BenchmarkServeHotPathQuantB8Events is the armed-observability variant of
// the gated path: SLO engine attached (every decision feeds its sources)
// and the wide-event sink in place. bench-gate holds its cost within 5% of
// QuantB8 and still requires 0 allocs/op.
func BenchmarkServeHotPathQuantB8Events(b *testing.B) {
	benchServeHotPath(b, EngineConfig{Seed: 21, Quantized: true, Events: obs.NewEventSink(256, 1, nil)}, false)
}

// The Warm twins: same loop, window left alone, every query a memo hit.
func BenchmarkServeHotPathFloatB8Warm(b *testing.B) {
	benchServeHotPath(b, EngineConfig{Seed: 21}, true)
}

func BenchmarkServeHotPathQuantB8Warm(b *testing.B) {
	benchServeHotPath(b, EngineConfig{Seed: 21, Quantized: true}, true)
}
