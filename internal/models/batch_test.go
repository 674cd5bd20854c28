package models

import (
	"bytes"
	"math"
	"testing"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
)

// TestSysStateBatchedFitLearnsAndIsDeterministic: the lockstep-batched fit
// must reach the quality bar and be exactly reproducible run to run.
func TestSysStateBatchedFitLearnsAndIsDeterministic(t *testing.T) {
	windows := sysWindows(t)
	train, test := dataset.Split(len(windows), 0.6, 11)
	cfg := tinySysConfig()

	a := NewSysStateModel(cfg)
	if err := a.Fit(windows, train); err != nil {
		t.Fatal(err)
	}
	ev := a.Evaluate(windows, test)
	if ev.R2Avg < 0.5 {
		t.Errorf("batched sysstate R² avg = %v, want > 0.5", ev.R2Avg)
	}
	t.Logf("batched sysstate R² = %.3f", ev.R2Avg)

	b := NewSysStateModel(cfg)
	if err := b.Fit(windows, train); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("batched fit rerun diverged: %s[%d] %v vs %v",
					pa[i].Name, j, pa[i].W.Data[j], pb[i].W.Data[j])
			}
		}
	}
}

// TestPerfBatchedFitLearnsAndIsDeterministic: same bar for the twin-encoder
// performance model.
func TestPerfBatchedFitLearnsAndIsDeterministic(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, test := dataset.Split(len(be), 0.6, 13)
	cfg := tinyPerfConfig()

	a := NewPerfModel(cfg, sigs)
	if err := a.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	ev, err := a.Evaluate(be, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.R2 < 0.2 {
		t.Errorf("batched perf R² = %v, want > 0.2", ev.R2)
	}
	t.Logf("batched perf R² = %.3f", ev.R2)

	b := NewPerfModel(cfg, sigs)
	if err := b.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	perfParamsEqual(t, a, b, "batched fit rerun")
}

// TestPerfPredictEachBatchedErrorContract: the batched PredictEach must keep
// per-sample error isolation and the PredictWith error precedence — a
// sample missing its future or signature fails alone, with the exact
// sequential error message, while its batchmates still resolve.
func TestPerfPredictEachBatchedErrorContract(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, _ := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	batch := make([]PerfSample, 4)
	batch[0] = be[0]
	batch[1] = be[1]
	batch[1].App = "no-such-app"
	batch[2] = be[2]
	batch[2].Future120 = nil
	batch[3] = be[3]

	preds, errs := m.PredictEach(batch, Future120Actual)
	for _, i := range []int{0, 3} {
		if errs[i] != nil {
			t.Fatalf("sample %d should resolve, got %v", i, errs[i])
		}
		want, err := m.PredictWith(&batch[i], Future120Actual)
		if err != nil {
			t.Fatal(err)
		}
		if preds[i] != want {
			t.Fatalf("sample %d: batched %v, sequential %v", i, preds[i], want)
		}
	}
	if errs[1] == nil || errs[1].Error() != `models: no signature for "no-such-app"` {
		t.Errorf("missing-signature error = %v", errs[1])
	}
	if errs[2] == nil || errs[2].Error() == errs[1].Error() {
		t.Errorf("missing-future error = %v", errs[2])
	}
	if _, want := m.PredictWith(&batch[2], Future120Actual); want == nil || errs[2].Error() != want.Error() {
		t.Errorf("batched error %q, sequential %q", errs[2], want)
	}
}

// TestSysStateGobUnaffectedByBatchState is the serialization guard: hot
// batched-inference arenas must not leak into the gob stream, and a model
// saved before the arenas existed must load and predict bit-identically
// after batched calls populated them.
func TestSysStateGobUnaffectedByBatchState(t *testing.T) {
	m, windows, _, test := trainSmallSysModel(t)
	pasts := make([][]mathx.Vector, len(test))
	for k, i := range test {
		pasts[k] = windows[i].Past
	}

	var cold bytes.Buffer
	if err := m.Save(&cold); err != nil {
		t.Fatal(err)
	}
	want := m.PredictBatch(pasts) // populates the staging and layer arenas

	var hot bytes.Buffer
	if err := m.Save(&hot); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), hot.Bytes()) {
		t.Fatal("batched scratch state leaked into the gob encoding")
	}

	m2 := NewSysStateModel(tinySysConfig())
	if err := m2.Load(&cold); err != nil {
		t.Fatal(err)
	}
	got := m2.PredictBatch(pasts)
	for k := range want {
		for j := range want[k] {
			if got[k][j] != want[k][j] {
				t.Fatalf("prediction %d[%d] after round-trip: %v vs %v",
					k, j, got[k][j], want[k][j])
			}
		}
	}
}

// TestPerfGobUnaffectedByBatchState: same guard for the performance model.
func TestPerfGobUnaffectedByBatchState(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, test := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	sub := make([]PerfSample, len(test))
	for k, i := range test {
		sub[k] = be[i]
	}

	var cold bytes.Buffer
	if err := m.Save(&cold); err != nil {
		t.Fatal(err)
	}
	want, errs := m.PredictEach(sub, Future120Actual)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var hot bytes.Buffer
	if err := m.Save(&hot); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), hot.Bytes()) {
		t.Fatal("batched scratch state leaked into the gob encoding")
	}

	m2 := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m2.Load(&cold); err != nil {
		t.Fatal(err)
	}
	got, errs := m2.PredictEach(sub, Future120Actual)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("prediction %d after round-trip: %v vs %v", k, got[k], want[k])
		}
	}
}

// benchSysModel trains one small system-state model and stages B uniform
// windows for the inference benchmarks.
func benchSysModel(b testing.TB, batch int) (*SysStateModel, [][]mathx.Vector) {
	m, windows, _, test := trainSmallSysModel(b)
	if len(test) < batch {
		b.Fatalf("only %d test windows", len(test))
	}
	pasts := make([][]mathx.Vector, batch)
	for k := 0; k < batch; k++ {
		pasts[k] = windows[test[k]].Past
	}
	return m, pasts
}

// BenchmarkPredictBatchB8 is the batch-inference headline: 8 windows per
// op through the lockstep-batched forward on one goroutine (batchWorkers
// keeps B=8 on the calling goroutine). Compare against
// BenchmarkPredictCloneFanoutB8, the pre-refactor path.
func BenchmarkPredictBatchB8(b *testing.B) {
	m, pasts := benchSysModel(b, 8)
	out := make([]mathx.Vector, len(pasts))
	m.forecastInto(out, pasts) // warm the arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forecastInto(out, pasts)
	}
}

// BenchmarkPredictCloneFanoutB8 approximates the retired clone-fan-out
// inference path at one core: the fan-out degenerated to a sequential
// per-window loop (inferWorkers clamped to GOMAXPROCS), which
// predictSequential keeps as the test reference. Run with -cpu 1 for the
// like-for-like comparison.
func BenchmarkPredictCloneFanoutB8(b *testing.B) {
	m, pasts := benchSysModel(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pasts {
			predictSequential(m, p)
		}
	}
}

// predictSequential is the per-sample reference forecast (reference_test.go):
// normalizer-built inputs, the encoder as a batch of one, the vector head.
func predictSequential(m *SysStateModel, past []mathx.Vector) mathx.Vector {
	logPast := logSeq(past)
	h := encodeOne(m.enc, m.normIn.TransformSeq(logPast), false)
	return expVec(m.normOut.Inverse(m.head.Forward(sysHeadInput(m, h, logPast), false)))
}

// TestSysStatePredictIntoMatchesSequential: the batch-of-one forecast over
// the model's arena equals the per-sample vector path bit for bit, reuses
// its arena across calls, and allocates nothing once warm.
func TestSysStatePredictIntoMatchesSequential(t *testing.T) {
	m, pasts := benchSysModel(t, 6)
	dst := mathx.NewVector(memsys.NumMetrics)
	for k, past := range pasts {
		want := predictSequential(m, past)
		m.PredictInto(dst, past)
		got := m.Predict(past)
		for j := range want {
			if math.Float64bits(dst[j]) != math.Float64bits(want[j]) || math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("window %d metric %d: PredictInto %v, Predict %v, sequential %v", k, j, dst[j], got[j], want[j])
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { m.PredictInto(dst, pasts[0]) }); n > 0 {
		t.Errorf("warm PredictInto allocates %.1f/op, want 0", n)
	}
}

// eachInto is the inference surface the float model and its int8 twin share.
type eachInto interface {
	PredictEachInto(samples []PerfSample, kind FutureKind, preds mathx.Vector, errs []error)
}

// TestPredictEachIntoMatchesUncached drives one long-lived model — its
// signature-embedding cache filling, hitting and being invalidated — and, at
// every step, a copy that has never predicted through the same batch, and
// requires bit-identical predictions, matching errors and exact cache
// counts: over repeated applications, an unknown application mid-batch, a
// re-captured signature, and (float, which alone can change under a cache)
// a Rebind, a Load and a Fit.
func TestPredictEachIntoMatchesUncached(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, _ := dataset.Split(len(be), 0.6, 13)
	trained := NewPerfModel(tinyPerfConfig(), sigs)
	if err := trained.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	otherCfg := tinyPerfConfig()
	otherCfg.Seed, otherCfg.Epochs = 99, 2
	other := NewPerfModel(otherCfg, sigs)
	if err := other.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	var otherBlob bytes.Buffer
	if err := other.Save(&otherBlob); err != nil {
		t.Fatal(err)
	}

	batch := append([]PerfSample(nil), be[:8]...)
	batch[5].App, batch[6].App = batch[0].App, batch[1].App // repeats, whatever the corpus drew
	apps := map[string]bool{}
	for _, s := range batch {
		apps[s.App] = true
	}
	uniq := uint64(len(apps))
	all := uint64(len(batch))

	for _, tc := range []struct {
		name  string
		build func(*PerfModel) (eachInto, *perfInfer)
	}{
		{"float", func(m *PerfModel) (eachInto, *perfInfer) { c := m.Clone(); return c, &c.inf }},
		{"int8", func(m *PerfModel) (eachInto, *perfInfer) { q := QuantizePerf(m); return q, &q.inf }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The steps write signatures and weights: own store, own model.
			store := sigs.Clone()
			src := trained.Clone()
			src.Rebind(store)
			live, inf := tc.build(src)
			if tc.name == "float" {
				src = live.(*PerfModel) // Rebind/Load/Fit below must act on the cached instance
			}
			preds, errs := mathx.NewVector(len(batch)), make([]error, len(batch))
			want, wantErrs := mathx.NewVector(len(batch)), make([]error, len(batch))
			step := func(label string, b []PerfSample, wantHits, wantMisses uint64) mathx.Vector {
				t.Helper()
				h0, m0 := inf.hits, inf.misses
				live.PredictEachInto(b, Future120Actual, preds, errs)
				fresh, _ := tc.build(src)
				fresh.PredictEachInto(b, Future120Actual, want, wantErrs)
				for i := range b {
					if (errs[i] == nil) != (wantErrs[i] == nil) || (errs[i] != nil && errs[i].Error() != wantErrs[i].Error()) {
						t.Errorf("%s: sample %d (%s): err %v, uncached %v", label, i, b[i].App, errs[i], wantErrs[i])
					}
					if math.Float64bits(preds[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s: sample %d (%s): %v, uncached %v", label, i, b[i].App, preds[i], want[i])
					}
				}
				if h, m := inf.hits-h0, inf.misses-m0; h != wantHits || m != wantMisses {
					t.Errorf("%s: %d cache hits / %d signatures encoded, want %d / %d", label, h, m, wantHits, wantMisses)
				}
				return preds.Clone()
			}

			step("cold", batch, all-uniq, uniq)
			base := step("warm", batch, all, 0)

			holed := append([]PerfSample(nil), batch...)
			holed[3].App = "no-such-app"
			live.PredictEachInto(holed, Future120Actual, preds, errs)
			if errs[3] == nil || preds[3] != 0 {
				t.Errorf("unknown app mid-batch: pred %v err %v, want an error and no prediction", preds[3], errs[3])
			}
			for i := range holed {
				if i != 3 && (errs[i] != nil || math.Float64bits(preds[i]) != math.Float64bits(base[i])) {
					t.Errorf("unknown app mid-batch: sample %d: %v (err %v), alone it predicted %v", i, preds[i], errs[i], base[i])
				}
			}

			// A re-captured signature is a new slice under the same name: the
			// old embedding must not answer for it.
			app := batch[0].App
			sig, _ := store.Get(batch[2].App)
			if batch[2].App == app {
				t.Fatal("fixture: samples 0 and 2 share an application")
			}
			if err := store.Put(app, sig.Steps); err != nil {
				t.Fatal(err)
			}
			var ofApp uint64
			for _, s := range batch {
				if s.App == app {
					ofApp++
				}
			}
			moved := step("re-captured signature", batch, all-1, 1)
			if moved[0] == base[0] {
				t.Error("re-capture did not move the prediction: the step above proves nothing")
			}
			if ofApp < 2 {
				t.Fatal("fixture: the re-captured application should repeat in the batch")
			}
			if tc.name != "float" {
				return
			}

			// Rebind: the new store's slices are all new keys, and nothing
			// keyed by the old store's may survive.
			store2 := store.Clone()
			src.Rebind(store2)
			rebound := step("rebind", batch, all-uniq, uniq)
			if len(inf.emb) != int(uniq) {
				t.Errorf("after Rebind the cache holds %d embeddings, want only the new store's %d", len(inf.emb), uniq)
			}
			for i := range rebound {
				if math.Float64bits(rebound[i]) != math.Float64bits(moved[i]) {
					t.Errorf("rebind to an equal store moved sample %d: %v → %v", i, moved[i], rebound[i])
				}
			}

			// Load and Fit move the weights under the cache.
			if err := src.Load(bytes.NewReader(otherBlob.Bytes())); err != nil {
				t.Fatal(err)
			}
			loaded := step("load", batch, all-uniq, uniq)
			if loaded[0] == rebound[0] {
				t.Error("Load did not move the prediction: the step above proves nothing")
			}
			src.Cfg.Epochs = 1
			if err := src.Fit(be, train); err != nil {
				t.Fatal(err)
			}
			step("fit", batch, all-uniq, uniq)
			step("fit, warm", batch, all, 0)
		})
	}
}
