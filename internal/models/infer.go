package models

import (
	"fmt"
	"math"
	"time"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
)

// The inference path of the performance model, one body for both
// arithmetics. PerfModel (float) and QuantPerfModel (int8) differ only in
// the three forwards behind perfNet; validation, staging, window dedup, the
// signature-embedding cache and the output transform are here, over scratch
// the model owns. After the first call at a batch shape a call allocates
// only to encode a signature for the first time or to report an error.

// perfNet is what the shared path needs of a model: its shape and fitted
// normalizers, and forward-only passes through the two encoders and the
// head over lockstep batches. Results are arena-owned by the model's layers,
// valid until that layer's next batched call.
type perfNet interface {
	inferShape() (hidden int, normIn, normOut *dataset.Normalizer)
	encodePast(xs []*mathx.Matrix) *mathx.Matrix // per-step [U×M] → [U×H]
	encodeSig(xs []*mathx.Matrix) *mathx.Matrix  // per-step [U×M] → [U×H]
	forwardHead(x *mathx.Matrix) *mathx.Matrix   // [B×(2H+1+M)] → [B×1]
}

// sigCacheCap bounds the embedding cache; captured signatures churn the
// store slowly, so in practice the cache converges to the working set. On
// overflow the whole cache resets (simple, and correctness never depends
// on residency).
const sigCacheCap = 4096

// perfInfer is a performance model's inference state: the
// signature-embedding cache and the per-call scratch. The zero value is
// ready. It belongs to one model instance and follows that model's
// single-caller contract; Clone and the wire format never carry it.
//
// The cache: the signature encoder's final hidden state is a pure function
// of (signature bits, weights, input normalizer), and admission traffic asks
// about the same few signatures over and over, so it is remembered per
// signature identity (seqKey; the store replaces whole entries and never
// mutates Steps in place, and a key keeps its rows alive, so an address is
// never reused under a live key). What invalidates it:
//   - a re-captured or loaded signature (SignatureStore.Put/Load) arrives
//     as a new slice, so a new key; the old entry idles until the cap
//     resets the cache;
//   - PerfModel.Rebind: a lookup against another store than the one the
//     keys were minted against drops the cache first (checked on the
//     inference caller's side, because Rebind may overlap a prediction);
//   - PerfModel.Fit and PerfModel.Load move weights and normalizer and
//     drop it directly.
//
// A QuantPerfModel is frozen against one store, so only the first applies.
type perfInfer struct {
	cacheOf      *SignatureStore // the store emb's keys were minted against
	emb          map[seqKey]mathx.Vector
	hits, misses uint64 // samples resolved without / signatures put through the encoder

	steps  [][]mathx.Vector // sample i's signature steps
	hK     []mathx.Vector   // sample i's signature embedding
	pend   []int            // samples that passed validation, not yet predicted
	group  []int            // the current same-past-length run of pend
	missK  [][]mathx.Vector // unique signatures to encode this call
	batchK [][]mathx.Vector // … of which the same-length run being encoded
	xsS    []*mathx.Matrix
	xsK    []*mathx.Matrix
	headX  *mathx.Matrix
	rowS   []int // group member k's row in the deduplicated past batch
	uniqS  [][]mathx.Vector
	seenS  map[seqKey]int
}

// dropCache forgets every embedding (the weights or the normalizer moved).
func (a *perfInfer) dropCache() {
	clear(a.emb)
	a.cacheOf = nil
}

// predictEachInto predicts every sample into preds/errs (caller-owned, both
// len(samples)): per-sample input errors first (PredictWith's messages and
// precedence), then the signature embeddings, then one batched forward per
// run of samples sharing a past length. A failing sample does not abort the
// rest — the contract admission batching needs, where one unknown
// application must not fail the batch. Repeated windows encode once per call
// (dedup by slice identity: every query of a placement batch shares one
// window), repeated signatures once per cache lifetime.
func (a *perfInfer) predictEachInto(net perfNet, sigs *SignatureStore, samples []PerfSample, kind FutureKind, preds mathx.Vector, errs []error) {
	n := len(samples)
	if len(preds) != n || len(errs) != n {
		panic("models: PredictEachInto output length mismatch")
	}
	im := instr.Load()
	var start time.Time
	if im != nil {
		start = time.Now()
	}
	if cap(a.hK) < n {
		a.steps = make([][]mathx.Vector, n)
		a.hK = make([]mathx.Vector, n)
		a.pend = make([]int, 0, n)
		a.group = make([]int, 0, n)
	}
	a.steps, a.hK = a.steps[:n], a.hK[:n]

	a.pend = a.pend[:0]
	for i := range samples {
		s := &samples[i]
		preds[i], errs[i] = 0, nil
		a.steps[i], a.hK[i] = nil, nil
		if kind != FutureNone && s.Future(kind) == nil {
			errs[i] = fmt.Errorf("models: sample %s missing %v future", s.App, kind)
			continue
		}
		sig, ok := sigs.Get(s.App)
		if !ok {
			errs[i] = fmt.Errorf("models: no signature for %q", s.App)
			continue
		}
		a.steps[i] = sig.Steps
		a.pend = append(a.pend, i)
	}
	a.resolveSigs(net, sigs)

	for len(a.pend) > 0 {
		shape := len(samples[a.pend[0]].Past)
		a.group = a.group[:0]
		rest := a.pend[:0]
		for _, i := range a.pend {
			if len(samples[i].Past) == shape {
				a.group = append(a.group, i)
			} else {
				rest = append(rest, i)
			}
		}
		a.pend = rest
		a.forwardGroup(net, samples, kind, preds, errs)
	}
	if im != nil {
		im.Batches.Inc()
		im.Samples.Add(uint64(n))
		im.BatchSize.Observe(float64(n))
		im.Latency.ObserveDuration(time.Since(start))
	}
}

// resolveSigs fills hK for every pending sample: from the cache where it can,
// otherwise by one batched signature-encoder forward per distinct length
// among the misses (the store resamples to one SeqLen, so more than one
// length only happens across a store reload), remembering the result.
func (a *perfInfer) resolveSigs(net perfNet, sigs *SignatureStore) {
	if a.cacheOf != sigs {
		a.dropCache()
		a.cacheOf = sigs
	}
	if a.emb == nil {
		a.emb = make(map[seqKey]mathx.Vector)
	}
	a.missK = a.missK[:0]
scan:
	for _, i := range a.pend {
		key := seqID(a.steps[i])
		if h, ok := a.emb[key]; ok {
			a.hK[i] = h
			a.hits++
			continue
		}
		for _, m := range a.missK {
			if seqID(m) == key {
				a.hits++ // rides on the encode its first asker pays for
				continue scan
			}
		}
		a.missK = append(a.missK, a.steps[i])
		a.misses++
	}
	if len(a.missK) == 0 {
		return
	}
	if len(a.emb)+len(a.missK) > sigCacheCap {
		clear(a.emb)
	}
	_, normIn, _ := net.inferShape()
	for len(a.missK) > 0 {
		Tk := len(a.missK[0])
		a.batchK = a.batchK[:0]
		rest := a.missK[:0]
		for _, steps := range a.missK {
			if len(steps) == Tk {
				a.batchK = append(a.batchK, steps)
			} else {
				rest = append(rest, steps)
			}
		}
		a.missK = rest
		a.xsK = mathx.EnsureMatrices(a.xsK, Tk, len(a.batchK), memsys.NumMetrics)
		for u, steps := range a.batchK {
			stageSeq(a.xsK, u, steps, normIn)
		}
		hK := net.encodeSig(a.xsK)
		for u, steps := range a.batchK {
			a.emb[seqID(steps)] = hK.Row(u).Clone()
		}
	}
	for _, i := range a.pend {
		if a.hK[i] == nil {
			a.hK[i] = a.emb[seqID(a.steps[i])]
		}
	}
}

// forwardGroup runs one batched forward over a.group (uniform past length),
// writing predictions and non-finite errors back through the group indices.
func (a *perfInfer) forwardGroup(net perfNet, samples []PerfSample, kind FutureKind, preds mathx.Vector, errs []error) {
	B := len(a.group)
	Ts := len(samples[a.group[0]].Past)
	H, normIn, normOut := net.inferShape()
	M := memsys.NumMetrics

	if cap(a.rowS) < B {
		a.rowS = make([]int, B)
	}
	a.rowS = a.rowS[:B]
	a.uniqS = a.uniqS[:0]
	if a.seenS == nil {
		a.seenS = make(map[seqKey]int)
	}
	clear(a.seenS)
	for k, i := range a.group {
		p := samples[i].Past
		key := seqID(p)
		u, ok := a.seenS[key]
		if !ok {
			u = len(a.uniqS)
			a.seenS[key] = u
			a.uniqS = append(a.uniqS, p)
		}
		a.rowS[k] = u
	}
	a.xsS = mathx.EnsureMatrices(a.xsS, Ts, len(a.uniqS), M)
	for u, p := range a.uniqS {
		stageSeq(a.xsS, u, p, normIn)
	}
	hS := net.encodePast(a.xsS)

	a.headX = mathx.EnsureMatrix(a.headX, B, 2*H+1+M)
	for k, i := range a.group {
		s := &samples[i]
		x := a.headX.Row(k)
		copy(x[:H], hS.Row(a.rowS[k]))
		copy(x[H:2*H], a.hK[i])
		x[2*H] = s.Remote
		stageFuture(x[2*H+1:], s.Future(kind), normIn)
	}
	Y := net.forwardHead(a.headX)
	for k, i := range a.group {
		out := math.Exp(Y.Data[k]*normOut.Std[0] + normOut.Mean[0])
		if math.IsNaN(out) || math.IsInf(out, 0) {
			errs[i] = fmt.Errorf("models: non-finite prediction for %s", samples[i].App)
			continue
		}
		preds[i] = out
	}
}
