package core

import (
	"context"
	"math"
	"testing"

	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/obs"
)

// clonePred is what a shard clone or re-clone is — fresh model copies, an
// empty memo — counting into stats.
func clonePred(p *Predictor, stats *MemoStats) *Predictor {
	c := p.Clone()
	c.Memo = stats
	return c
}

func cloneWindow(w []mathx.Vector) []mathx.Vector {
	out := make([]mathx.Vector, len(w))
	for i, r := range w {
		out[i] = r.Clone()
	}
	return out
}

// TestPredictMemoDifferential drives one long-lived (memo'd) predictor and,
// at every step, a fresh clone that has never seen a window through the same
// (queries, window) and requires bit-identical predictions and matching
// errors — over repeated windows, a window change, overlapping query sets,
// erroring queries, signature-store writes, a NaN window, a promotion and a
// re-clone — for the float path and the int8 twin. The Ŝ forecasts the
// long-lived predictor runs are counted exactly (by their span): one per
// distinct window, none for new queries against a window already forecast.
func TestPredictMemoDifferential(t *testing.T) {
	pred, watch, _ := trainTinyPredictor(t)
	c := warmCluster(t, watch)
	winA := watch.Window(c)
	c.Deploy(registry.ByName("gmm"), memsys.TierRemote)
	c.Run(c.Now() + 5) // a new arrival and a few ticks: the window moves
	winB := watch.Window(c)
	winNaN := cloneWindow(winB)
	winNaN[2][3] = math.NaN()

	q := func(name string, class PerfClass, tier memsys.Tier) PerfQuery {
		return PerfQuery{Name: name, Class: class, Tier: tier}
	}
	gmmL, gmmR := q("gmm", ClassBE, memsys.TierLocal), q("gmm", ClassBE, memsys.TierRemote)
	nwL, nwR := q("nweight", ClassBE, memsys.TierLocal), q("nweight", ClassBE, memsys.TierRemote)
	redis := q("redis", ClassLC, memsys.TierRemote)
	nosuch := q("nosuch", ClassBE, memsys.TierRemote)
	fresh1 := q("fresh-app", ClassBE, memsys.TierRemote)
	q1 := []PerfQuery{gmmL, gmmR, redis}
	q2 := []PerfQuery{nwL, gmmR, nosuch, nwR, redis, gmmR}

	for _, tc := range []struct {
		name  string
		build func(*Predictor) PerfInference
	}{
		{"float", func(p *Predictor) PerfInference { return p }},
		{"int8", func(p *Predictor) PerfInference { return NewQuantPredictor(p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			// The test writes signatures; give each variant its own store.
			base := clonePred(pred, nil)
			base.Sigs = pred.Sigs.Clone()
			base.BE.Rebind(base.Sigs)
			base.LC.Rebind(base.Sigs)

			stats := &MemoStats{}
			live := clonePred(base, stats)
			memod := tc.build(live)
			rec := obs.NewSpanRecorder()
			traced := obs.WithRecorder(ctx, rec)
			step := func(label string, queries []PerfQuery, window []mathx.Vector, wantHits, wantMisses uint64, wantForecasts int) {
				t.Helper()
				h0, m0 := stats.Hits.Load(), stats.Misses.Load()
				rec.Reset()
				gp, ge := memod.PredictPerfBatch(traced, queries, cloneWindow(window))
				got, gotErrs := gp.Clone(), append([]error(nil), ge...) // results are arena-owned
				forecasts := 0
				for _, sp := range rec.Spans() {
					if sp.Name == "sysstate_predict" {
						forecasts++
					}
				}
				if forecasts != wantForecasts {
					t.Errorf("%s: %d Ŝ forecasts, want %d", label, forecasts, wantForecasts)
				}
				want, wantErrs := tc.build(clonePred(live, nil)).PredictPerfBatch(ctx, queries, window)
				for i := range queries {
					if (gotErrs[i] == nil) != (wantErrs[i] == nil) ||
						(gotErrs[i] != nil && gotErrs[i].Error() != wantErrs[i].Error()) {
						t.Errorf("%s: query %d (%v): err %v, fresh clone %v", label, i, queries[i], gotErrs[i], wantErrs[i])
					}
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s: query %d (%v): %v, fresh clone %v", label, i, queries[i], got[i], want[i])
					}
				}
				if h, m := stats.Hits.Load()-h0, stats.Misses.Load()-m0; h != wantHits || m != wantMisses {
					t.Errorf("%s: %d hits / %d misses, want %d / %d", label, h, m, wantHits, wantMisses)
				}
			}

			step("first sight of A", q1, winA, 0, 3, 1)
			step("A again", q1, winA, 3, 0, 0)
			step("A, overlapping queries", q2, winA, 3, 3, 0) // gmmR twice + redis hit; nweight ×2 and nosuch miss, on the remembered Ŝ
			step("A, errors are not remembered", q2, winA, 5, 1, 0)
			step("tick: B", q2, winB, 0, 6, 1)
			step("back to A: only the last window is kept", q1, winA, 0, 3, 1)

			// A cold-start capture adds a signature: the store's version
			// moves, so nothing computed before it is served after it.
			step("before capture", []PerfQuery{fresh1, gmmR}, winA, 1, 1, 0)
			if err := base.Sigs.Put("fresh-app", winB); err != nil {
				t.Fatal(err)
			}
			step("after capture", []PerfQuery{fresh1, gmmR}, winA, 0, 2, 0) // no signature feeds Ŝ
			// A re-captured signature changes what gmm predicts.
			before, _ := memod.PredictPerfBatch(ctx, []PerfQuery{gmmR}, winA)
			old := before[0]
			if err := base.Sigs.Put("gmm", winB); err != nil {
				t.Fatal(err)
			}
			step("after re-capture", []PerfQuery{gmmR, fresh1}, winA, 0, 2, 0)
			if after, _ := memod.PredictPerfBatch(ctx, []PerfQuery{gmmR}, winA); after[0] == old {
				t.Error("re-captured signature did not move gmm's prediction: the check above proves nothing")
			}

			// NaN != NaN: a corrupt window never matches, not even itself.
			step("NaN window", q1, winNaN, 0, 3, 1)
			step("NaN window again", q1, winNaN, 0, 3, 1)

			// Promotion: a new generation is a new Predictor value over (some
			// of) the same model instances. It must not inherit answers.
			step("before promotion", q1, winB, 0, 3, 1)
			live = &Predictor{Sys: live.Sys, BE: live.LC.Clone(), LC: live.LC, Sigs: live.Sigs, Memo: live.Memo}
			memod = tc.build(live)
			step("promoted generation", q1, winB, 0, 3, 1)
			step("promoted generation, again", q1, winB, 3, 0, 0)

			// Re-clone: fresh model copies, empty memo, same counters.
			live = clonePred(live, stats)
			memod = tc.build(live)
			step("re-cloned", q1, winB, 0, 3, 1)
			step("re-cloned, again", q1, winB, 3, 0, 0)
		})
	}
}
