package core

import (
	"sync/atomic"

	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/models"
)

// MemoStats counts prediction-memo lookups, one per query. A serving stack
// shares one MemoStats across every predictor it builds — the engine's, each
// shard clone, each promoted generation — so the totals outlive the
// predictor instances (and their memos) that a hot swap or re-clone replaces.
type MemoStats struct {
	Hits, Misses atomic.Uint64
}

// predMemo is the prediction memo at the bottom of the inference stack: for
// the last history window seen it remembers the window's Ŝ forecast and the
// prediction computed for each PerfQuery, so the performance models run only
// for queries not yet asked against that window and the system-state model
// once per window, however many batches ask about it. The Watcher window moves once per testbed tick while placements
// arrive far faster, and between two ticks a (window, signatures, query)
// triple has exactly one answer — the models are deterministic per sample —
// so a remembered prediction is the bit-identical one.
//
// The key is content, not identity: the window is compared cell by cell
// against a private copy (a NaN cell compares unequal to itself, so a
// corrupt window can never hit), together with the signature store's
// identity and version. Errors are never remembered. The memo belongs to one
// predictor instance and follows that predictor's single-caller contract
// (its models own their arenas the same way); a new instance — hot swap,
// shard clone, re-clone — starts empty, which is all the invalidation there
// is.
type predMemo struct {
	win    mathx.Vector // flattened copy of the remembered window
	fut    mathx.Vector // the window's Ŝ, valid while hasFut (the caller fills it)
	hasFut bool
	sigs   *models.SignatureStore
	sigVer uint64
	vals   map[PerfQuery]float64
	miss   []int // lookup's result, reused across batches
}

// lookup writes the remembered prediction of every query it can answer into
// preds and returns the indices of the rest, which the caller must compute
// and hand to store. A window change forgets everything first; a signature
// change forgets the predictions but not Ŝ, which no signature feeds.
// The signature version is read before the caller's models read the store,
// so a concurrent Put can only label a prediction with an older version
// than it saw — it is forgotten on the next lookup, never served stale.
func (m *predMemo) lookup(stats *MemoStats, sigs *models.SignatureStore, window []mathx.Vector, queries []PerfQuery, preds mathx.Vector) []int {
	var ver uint64
	if sigs != nil {
		ver = sigs.Version()
	}
	if m.vals == nil {
		m.vals = make(map[PerfQuery]float64)
		m.fut = mathx.NewVector(memsys.NumMetrics)
	}
	moved := !m.sameWindow(window)
	if moved {
		m.win = m.win[:0]
		for _, row := range window {
			m.win = append(m.win, row...)
		}
		m.hasFut = false
	}
	if moved || sigs != m.sigs || ver != m.sigVer {
		m.sigs, m.sigVer = sigs, ver
		clear(m.vals)
	}
	m.miss = m.miss[:0]
	for i, q := range queries {
		if v, ok := m.vals[q]; ok {
			preds[i] = v
		} else {
			m.miss = append(m.miss, i)
		}
	}
	if stats != nil {
		stats.Hits.Add(uint64(len(queries) - len(m.miss)))
		stats.Misses.Add(uint64(len(m.miss)))
	}
	return m.miss
}

func (m *predMemo) sameWindow(window []mathx.Vector) bool {
	k := 0
	for _, row := range window {
		if k+len(row) > len(m.win) {
			return false
		}
		for _, v := range row {
			if m.win[k] != v {
				return false
			}
			k++
		}
	}
	return k == len(m.win)
}

// store remembers the freshly computed predictions of the missed queries.
func (m *predMemo) store(queries []PerfQuery, miss []int, preds mathx.Vector, errs []error) {
	for _, i := range miss {
		if errs[i] == nil {
			m.vals[queries[i]] = preds[i]
		}
	}
}
