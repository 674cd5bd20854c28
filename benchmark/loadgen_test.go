package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adrias/internal/workload"
)

var testReg = workload.NewRegistry()

// stubPlace answers /v1/place the way adrias-serve does for the checks the
// generator makes; before, when non-nil, runs first and may answer itself.
func stubPlace(t *testing.T, before func(n int64, w http.ResponseWriter) bool) *httptest.Server {
	t.Helper()
	classes := map[string]string{}
	apps, _ := appMix(testReg)
	for _, a := range apps {
		classes[a.name] = a.class
	}
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			App string `json:"app"`
		}
		b, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(b, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if before != nil && before(n.Add(1), w) {
			return
		}
		fmt.Fprintf(w, `{"app":%q,"class":%q,"tier":"local","trace_id":"t-1"}`+"\n", req.App, classes[req.App])
	}))
	t.Cleanup(srv.Close)
	return srv
}

func addrOf(srv *httptest.Server) string { return strings.TrimPrefix(srv.URL, "http://") }

func TestPlanIsReproducible(t *testing.T) {
	a := newPlan(testReg, 42, 50, 150, 10*time.Second)
	b := newPlan(testReg, 42, 50, 150, 10*time.Second)
	if !reflect.DeepEqual(a.seq, b.seq) || !reflect.DeepEqual(a.arrivals, b.arrivals) {
		t.Fatal("same seed produced different plans")
	}
	for i := 0; i < 500; i++ {
		if a.deployAt(i) != b.deployAt(i) {
			t.Fatalf("deploy position %d differs between equal seeds", i)
		}
	}
	c := newPlan(testReg, 43, 50, 150, 10*time.Second)
	if reflect.DeepEqual(a.arrivals, c.arrivals) || reflect.DeepEqual(a.seq, c.seq) {
		t.Fatal("different seeds produced the same plan")
	}
	// Poisson at 150/s over 10 s: 1500 ± a few σ (σ ≈ 39), strictly rising.
	if n := len(a.arrivals); n < 1300 || n > 1700 {
		t.Fatalf("%d arrivals in 10 s at 150/s", n)
	}
	deploys := 0
	for i := range a.arrivals {
		if i > 0 && a.arrivals[i] <= a.arrivals[i-1] {
			t.Fatalf("arrival %d not after its predecessor", i)
		}
		if a.deployAt(i) {
			deploys++
		}
	}
	if want := len(a.arrivals) / 50; deploys < want || deploys > want+1 {
		t.Fatalf("%d deploy positions among %d, want one in 50", deploys, len(a.arrivals))
	}
	// The mix: about one request in five names a latency-critical app.
	_, nBE := appMix(testReg)
	lc := 0
	for _, ai := range a.seq {
		if int(ai) >= nBE {
			lc++
		}
	}
	if share := float64(lc) / float64(len(a.seq)); share < 0.18 || share > 0.22 {
		t.Fatalf("LC share %.3f, want ≈ 0.20", share)
	}
}

// TestOpenLoopCountsFromIntendedSend: one 50 ms stall on a single
// connection delays the requests scheduled behind it; their latency must
// count from when they were due, and the generator must report how late it
// ran.
func TestOpenLoopCountsFromIntendedSend(t *testing.T) {
	const stall = 50 * time.Millisecond
	srv := stubPlace(t, func(n int64, _ http.ResponseWriter) bool {
		if n == 5 {
			time.Sleep(stall)
		}
		return false
	})
	p := newPlan(testReg, 7, 0, 400, 500*time.Millisecond)
	res := runLoad(genConfig{addr: addrOf(srv), conns: 1, nodes: 1, window: 500 * time.Millisecond}, p)
	if len(res.samples) != len(p.arrivals) {
		t.Fatalf("%d samples for %d scheduled requests", len(res.samples), len(p.arrivals))
	}
	inherited := 0
	for i, s := range res.samples {
		if !s.ok {
			t.Fatalf("sample %d failed: %v", i, res.reasons)
		}
		// Requests 6… were served in well under a millisecond each, yet
		// those due during the stall waited for it.
		if i >= 5 && s.latency > stall/2 {
			inherited++
		}
	}
	if inherited < 3 {
		t.Fatalf("only %d requests behind the stall show it in their latency", inherited)
	}
	if late := latePercentile(res.late, 0.99); late < float64(stall/4)/float64(time.Microsecond) {
		t.Fatalf("gen.late_p99_us = %.0f, want the stall to show", late)
	}
}

func TestTailIndexLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, idx int
		pct    float64
		ok     bool
	}{
		{n: 2000, idx: 1979, pct: 0.99, ok: true}, // p99 with 20 beyond
		{n: 1000, idx: 989, pct: 0.99, ok: true},  // p99 with exactly 10 beyond
		{n: 500, idx: 489, pct: 0.98, ok: true},   // lowered: p98 leaves 10 beyond
		{n: 11, idx: 0, pct: 1.0 / 11, ok: true},  // only the minimum qualifies
		{n: 10, ok: false}, {n: 0, ok: false},     // nothing leaves 10 beyond
	} {
		idx, pct, ok := tailIndex(tc.n, 0.99)
		if ok != tc.ok || (ok && (idx != tc.idx || pct < tc.pct-1e-9 || pct > tc.pct+1e-9)) {
			t.Errorf("tailIndex(%d) = %d, %.4f, %v; want %d, %.4f, %v", tc.n, idx, pct, ok, tc.idx, tc.pct, tc.ok)
		}
		if ok && tc.n-1-idx < 10 {
			t.Errorf("tailIndex(%d) leaves %d beyond", tc.n, tc.n-1-idx)
		}
	}
}

func TestBandMeanAveragesAcrossAStep(t *testing.T) {
	// 1000 sorted values stepping from 2 to 3 at index 988: the single order
	// statistic at p99 (index 989) reads 3; the band [984, 994] reads the mix.
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = 2
		if i >= 988 {
			vs[i] = 3
		}
	}
	if got, want := bandMean(vs, 989), (4*2.0+7*3.0)/11; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("bandMean = %v, want %v", got, want)
	}
	if got := bandMean(vs[:150], 139); got != 2 { // band narrower than one sample: the value itself
		t.Errorf("bandMean on a short slice = %v, want 2", got)
	}
	if got := bandMean(vs, 999); got != 3 { // clamped at the top
		t.Errorf("bandMean at the top = %v, want 3", got)
	}
}

func TestMidmeanDropsTheExtremes(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{4}, 4}, {[]float64{2, 4}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{2.75, 2.75, 3.45, 3.45, 3.45, 100}, (2.75 + 3.45*3) / 4}, // one wild slice
		{[]float64{2.75, 2.75, 2.75, 3.45, 3.45, 3.45}, 3.1},                // two modes: in between
	} {
		if got := midmean(tc.in); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("midmean(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestAggregateTakesSliceMidmeans: one slice full of slow samples moves
// neither the median latency, nor the tail, nor the goodput.
func TestAggregateTakesSliceMidmeans(t *testing.T) {
	const window = 6 * time.Second
	var samples []sample
	for i := 0; i < 6000; i++ {
		at := time.Duration(i) * time.Millisecond
		lat := time.Millisecond
		if i%50 == 49 {
			lat = 3 * time.Millisecond // the honest tail: 2 % at 3 ms
		}
		if at >= 2*time.Second && at < 3*time.Second {
			lat = 40 * time.Millisecond // slice 2 hit by a stall
		}
		samples = append(samples, sample{at: at, latency: lat, ok: true})
	}
	samples = append(samples, sample{at: -time.Second, latency: time.Hour, ok: false}) // warm-up: ignored
	samples = append(samples, sample{at: window, latency: time.Hour, ok: false})       // past the end: ignored
	ws := aggregate(samples, window)
	if ws.attempted != 6000 || ws.failed != 0 || ws.late != 1000 {
		t.Fatalf("attempted %d failed %d late %d", ws.attempted, ws.failed, ws.late)
	}
	if len(ws.slices) != numSlices || ws.slices[2].p50Ms != 40 {
		t.Fatalf("slices: %+v", ws.slices)
	}
	if ws.p50Ms != 1 || ws.p99Ms != 3 || ws.goodput != 1000 {
		t.Fatalf("p50 %.3f p99 %.3f goodput %.1f, want 1, 3, 1000", ws.p50Ms, ws.p99Ms, ws.goodput)
	}
}

// TestGoodputCountsRefusedFailedAndLateAsMisses drives a stub that refuses
// (429), fails (500), answers late (beyond the 10 ms limit) and answers a
// wrong class, one request in eight each.
func TestGoodputCountsRefusedFailedAndLateAsMisses(t *testing.T) {
	srv := stubPlace(t, func(n int64, w http.ResponseWriter) bool {
		switch n % 8 {
		case 1:
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return true
		case 3:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return true
		case 5:
			time.Sleep(latencyLimit + 5*time.Millisecond)
		case 7:
			fmt.Fprint(w, `{"app":"gmm","class":"nope","tier":"local","trace_id":"t"}`)
			return true
		}
		return false
	})
	const window = 600 * time.Millisecond
	p := newPlan(testReg, 3, 0, 0, 0)
	res := runLoad(genConfig{addr: addrOf(srv), conns: 1, nodes: 1, window: window}, p)
	ws := aggregate(res.samples, window)
	if ws.attempted < 40 {
		t.Fatalf("only %d requests in %v", ws.attempted, window)
	}
	n := float64(ws.attempted)
	if f := float64(ws.failed) / n; f < 0.30 || f > 0.45 {
		t.Errorf("failed share %.2f, want ≈ 3/8 (429, 500, wrong class): %v", f, res.reasons)
	}
	if res.reasons["http-429"] == 0 || res.reasons["http-500"] == 0 || res.reasons["class-mismatch"]+res.reasons["app-mismatch"] == 0 {
		t.Errorf("failure reasons %v", res.reasons)
	}
	if l := float64(ws.late) / n; l < 0.08 || l > 0.18 {
		t.Errorf("late share %.2f, want ≈ 1/8", l)
	}
	good := 0
	for _, s := range res.samples {
		if s.good() {
			good++
		}
	}
	if good != ws.attempted-ws.failed-ws.late {
		t.Errorf("good %d ≠ attempted %d − failed %d − late %d", good, ws.attempted, ws.failed, ws.late)
	}
	var sum float64
	for _, s := range ws.slices {
		sum += s.goodput * (window / numSlices).Seconds()
	}
	if int(sum+0.5) != good {
		t.Errorf("slice goodputs add up to %.1f operations, want %d", sum, good)
	}
}

func TestCheckPlace(t *testing.T) {
	want := app{"gmm", "BE"}
	ok := placeBody{App: "gmm", Class: "BE", Tier: "remote", Node: 1, TraceID: "x"}
	if r := checkPlace(&ok, want, 2); r != "" {
		t.Fatalf("sound body rejected: %s", r)
	}
	for name, mutate := range map[string]func(*placeBody){
		"app-mismatch":      func(b *placeBody) { b.App = "sort" },
		"class-mismatch":    func(b *placeBody) { b.Class = "LC" },
		"bad-tier":          func(b *placeBody) { b.Tier = "" },
		"no-trace-id":       func(b *placeBody) { b.TraceID = "" },
		"node-out-of-range": func(b *placeBody) { b.Node = 2 },
	} {
		b := ok
		mutate(&b)
		if r := checkPlace(&b, want, 2); r != name {
			t.Errorf("%s: got %q", name, r)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	vs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
}
