package models

import (
	"math"
	"testing"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
)

// TestQuantSysStateTracksFloat: the int8 twin must track the float model's
// forecasts within the quantization budget. No bit-identity — the contract
// is the relative error over the test windows (DESIGN.md §12).
func TestQuantSysStateTracksFloat(t *testing.T) {
	m, windows, _, test := trainSmallSysModel(t)
	q := QuantizeSysState(m)
	if len(test) > 24 {
		test = test[:24]
	}
	var sumRel float64
	var n int
	for _, i := range test {
		want := m.Predict(windows[i].Past)
		got := q.Predict(windows[i].Past)
		for j := range want {
			if got[j] < 0 || math.IsNaN(got[j]) || math.IsInf(got[j], 0) {
				t.Fatalf("window %d metric %d: quantized forecast %g", i, j, got[j])
			}
			den := math.Abs(want[j]) + 1
			sumRel += math.Abs(got[j]-want[j]) / den
			n++
		}
	}
	if rel := sumRel / float64(n); rel > 0.10 {
		t.Fatalf("quantized sys-state mean relative error %.4f > 0.10", rel)
	}
}

// TestQuantPerfTracksFloat: quantized PredictEach vs the float path over the
// held-out BE samples, plus the Calibrate report that packages the same
// comparison for the bench gate.
func TestQuantPerfTracksFloat(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, test := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	q := QuantizePerf(m)

	batch := make([]PerfSample, 0, len(test))
	for _, i := range test {
		batch = append(batch, be[i])
	}
	want, ferrs := m.PredictEach(batch, Future120Actual)
	got, qerrs := q.PredictEach(batch, Future120Actual)
	var sumRel, maxRel float64
	var n int
	for i := range batch {
		if ferrs[i] != nil || qerrs[i] != nil {
			t.Fatalf("sample %d errored: float %v, quant %v", i, ferrs[i], qerrs[i])
		}
		rel := math.Abs(got[i]-want[i]) / want[i]
		sumRel += rel
		if rel > maxRel {
			maxRel = rel
		}
		n++
	}
	meanRel := sumRel / float64(n)
	if meanRel > 0.10 {
		t.Fatalf("quantized perf mean relative error %.4f > 0.10", meanRel)
	}

	rep, err := q.Calibrate(m, batch, Future120Actual)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != n {
		t.Fatalf("Calibrate compared %d samples, want %d", rep.N, n)
	}
	if math.Abs(rep.MeanRelErr-meanRel) > 1e-12 || math.Abs(rep.MaxRelErr-maxRel) > 1e-12 {
		t.Fatalf("Calibrate report (%.6f, %.6f) disagrees with direct comparison (%.6f, %.6f)",
			rep.MeanRelErr, rep.MaxRelErr, meanRel, maxRel)
	}

	if _, err := q.Calibrate(m, nil, Future120Actual); err == nil {
		t.Fatal("Calibrate accepted an empty calibration set")
	}
}

// TestQuantPerfErrorContract mirrors the float batched contract: per-sample
// error isolation with the exact float-path messages, and batch predictions
// bit-identical to a single-sample batch (per-row quantization makes rows
// independent — the property the dedup and cache rely on).
func TestQuantPerfErrorContract(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, _ := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	q := QuantizePerf(m)

	batch := make([]PerfSample, 4)
	batch[0] = be[0]
	batch[1] = be[1]
	batch[1].App = "no-such-app"
	batch[2] = be[2]
	batch[2].Future120 = nil
	batch[3] = be[3]

	preds, errs := q.PredictEach(batch, Future120Actual)
	for _, i := range []int{0, 3} {
		if errs[i] != nil {
			t.Fatalf("sample %d should resolve, got %v", i, errs[i])
		}
		solo, soloErrs := q.PredictEach(batch[i:i+1], Future120Actual)
		if soloErrs[0] != nil {
			t.Fatal(soloErrs[0])
		}
		if preds[i] != solo[0] {
			t.Fatalf("sample %d: batched %v, single %v", i, preds[i], solo[0])
		}
	}
	if errs[1] == nil || errs[1].Error() != `models: no signature for "no-such-app"` {
		t.Errorf("missing-signature error = %v", errs[1])
	}
	_, want := m.PredictWith(&batch[2], Future120Actual)
	if want == nil || errs[2] == nil || errs[2].Error() != want.Error() {
		t.Errorf("missing-future error %v, float path %v", errs[2], want)
	}
}

// TestQuantPerfCacheAndZeroAlloc pins the two hot-path properties the serve
// layer depends on: after one warm call the signature-embedding cache
// resolves every repeat without re-encoding, and steady-state
// PredictEachInto at a fixed batch shape allocates nothing.
func TestQuantPerfCacheAndZeroAlloc(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, _ := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	q := QuantizePerf(m)

	batch := make([]PerfSample, 8)
	for i := range batch {
		batch[i] = be[i]
	}
	preds := mathx.NewVector(len(batch))
	errs := make([]error, len(batch))
	q.PredictEachInto(batch, Future120Actual, preds, errs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	if len(q.inf.emb) == 0 {
		t.Fatal("signature-embedding cache empty after a warm call")
	}
	first := preds.Clone()

	// A second call must hit the cache for every signature and reproduce the
	// predictions bit-for-bit (the cache stores exact embeddings).
	cached := len(q.inf.emb)
	q.PredictEachInto(batch, Future120Actual, preds, errs)
	if len(q.inf.emb) != cached {
		t.Fatalf("cache grew from %d to %d on repeated signatures", cached, len(q.inf.emb))
	}
	for i := range preds {
		if preds[i] != first[i] {
			t.Fatalf("sample %d: cached prediction %v, first call %v", i, preds[i], first[i])
		}
	}

	if n := testing.AllocsPerRun(20, func() {
		q.PredictEachInto(batch, Future120Actual, preds, errs)
	}); n > 0 {
		t.Fatalf("steady-state PredictEachInto allocates %.1f/op, want 0", n)
	}
}

// TestQuantizeUntrainedPanics: freezing an unfitted model is a programming
// error, not a recoverable condition.
func TestQuantizeUntrainedPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on an untrained model", name)
			}
		}()
		f()
	}
	assertPanics("QuantizeSysState", func() { QuantizeSysState(NewSysStateModel(tinySysConfig())) })
	assertPanics("QuantizePerf", func() { QuantizePerf(NewPerfModel(tinyPerfConfig(), nil)) })
}

// benchPerfFixture trains the tiny perf model once and builds a B-sample
// admission batch for the float-vs-int8 throughput comparison.
func benchPerfFixture(b *testing.B, batchSize int) (*PerfModel, *QuantPerfModel, []PerfSample) {
	be, sigs := buildPerfFixtures(b)
	train, _ := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		b.Fatal(err)
	}
	q := QuantizePerf(m)
	batch := make([]PerfSample, batchSize)
	for i := range batch {
		batch[i] = be[i%len(be)]
	}
	return m, q, batch
}

// BenchmarkPerfPredictEachFloatB8 is the float baseline for the bench-gate
// quant/float throughput ratio. Run with -cpu 1 for the gate comparison.
func BenchmarkPerfPredictEachFloatB8(b *testing.B) {
	m, _, batch := benchPerfFixture(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictEach(batch, Future120Actual)
	}
}

// BenchmarkPerfPredictEachQuantB8 is the int8 twin at the same batch size;
// the bench gate requires 0 allocs/op and ≥ 1.5× the float throughput.
func BenchmarkPerfPredictEachQuantB8(b *testing.B) {
	_, q, batch := benchPerfFixture(b, 8)
	preds := mathx.NewVector(len(batch))
	errs := make([]error, len(batch))
	q.PredictEachInto(batch, Future120Actual, preds, errs) // warm arenas + cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PredictEachInto(batch, Future120Actual, preds, errs)
	}
}
