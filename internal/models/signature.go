// Package models implements the two stacked deep-learning models at the
// heart of Adrias (paper §V-B2, Fig. 11):
//
//   - the system-state model, which forecasts the per-metric mean of the
//     monitored performance events over the next horizon window from their
//     history window; and
//   - the performance model, which predicts an incoming application's
//     performance (execution time for BE, 99th-percentile latency for LC)
//     from the past system state S, the (predicted) future state Ŝ, the
//     deployment mode, and the application's signature k.
//
// A signature is the application's metric trace captured while running
// alone on remote memory — the fingerprint Adrias stores the first time it
// sees an unknown workload.
package models

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"adrias/internal/cluster"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/workload"
)

// Signature is an application's resampled isolated-remote metric trace.
type Signature struct {
	Name  string
	Steps []mathx.Vector // fixed-length sequence of metric vectors
}

// SignatureStore maps application names to captured signatures. It is safe
// for concurrent use: the sharded placement tier's replicas read signatures
// while in-situ captures on the commit path write new ones. Put always
// replaces whole entries (never mutates Steps in place), so a reader holding
// a previously fetched Signature keeps a consistent trace.
type SignatureStore struct {
	mu   sync.RWMutex
	sigs map[string]Signature
	// ver counts content changes (Put, Load), bumped under mu after the
	// change is in place.
	ver atomic.Uint64
	// SeqLen is the fixed number of steps every signature is resampled to.
	SeqLen int
}

// NewSignatureStore returns an empty store resampling to seqLen steps.
func NewSignatureStore(seqLen int) *SignatureStore {
	if seqLen <= 0 {
		panic("models: signature SeqLen must be positive")
	}
	return &SignatureStore{sigs: make(map[string]Signature), SeqLen: seqLen}
}

// Has reports whether a signature for name exists.
func (s *SignatureStore) Has(name string) bool {
	s.mu.RLock()
	_, ok := s.sigs[name]
	s.mu.RUnlock()
	return ok
}

// Version returns a counter that moves on every Put and Load. A reader that
// sees the same version before two reads of the store saw the same
// contents, so results derived from signatures can be remembered against
// it (core's prediction memo does) without taking the lock.
func (s *SignatureStore) Version() uint64 { return s.ver.Load() }

// Get returns the signature for name.
func (s *SignatureStore) Get(name string) (Signature, bool) {
	s.mu.RLock()
	sig, ok := s.sigs[name]
	s.mu.RUnlock()
	return sig, ok
}

// Put stores a signature, resampling the raw trace to SeqLen steps.
func (s *SignatureStore) Put(name string, trace []mathx.Vector) error {
	if len(trace) == 0 {
		return fmt.Errorf("models: empty trace for signature %q", name)
	}
	sig := Signature{Name: name, Steps: ResampleSeq(trace, s.SeqLen)}
	s.mu.Lock()
	s.sigs[name] = sig
	s.ver.Add(1)
	s.mu.Unlock()
	return nil
}

// Clone returns a deep, independent copy of the store. The online learning
// loop snapshots the live store with it before a background fit, so the
// candidate model's signature reads never race with in-situ captures on the
// serving path.
func (s *SignatureStore) Clone() *SignatureStore {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := NewSignatureStore(s.SeqLen)
	for name, sig := range s.sigs {
		steps := make([]mathx.Vector, len(sig.Steps))
		for i, r := range sig.Steps {
			steps[i] = r.Clone()
		}
		out.sigs[name] = Signature{Name: name, Steps: steps}
	}
	return out
}

// Names returns the stored application names, sorted.
func (s *SignatureStore) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.sigs))
	for n := range s.sigs {
		out = append(out, n)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// sigBlob is the gob wire format of a signature store.
type sigBlob struct {
	SeqLen int
	Sigs   map[string][][]float64
}

// Save writes the store in gob format.
func (s *SignatureStore) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	blob := sigBlob{SeqLen: s.SeqLen, Sigs: make(map[string][][]float64, len(s.sigs))}
	for name, sig := range s.sigs {
		rows := make([][]float64, len(sig.Steps))
		for i, r := range sig.Steps {
			rows[i] = append([]float64(nil), r...)
		}
		blob.Sigs[name] = rows
	}
	return gob.NewEncoder(w).Encode(blob)
}

// Load replaces the store's contents with a previously saved snapshot.
func (s *SignatureStore) Load(r io.Reader) error {
	var blob sigBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return fmt.Errorf("models: decoding signatures: %w", err)
	}
	if blob.SeqLen <= 0 {
		return fmt.Errorf("models: invalid signature SeqLen %d", blob.SeqLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.SeqLen = blob.SeqLen
	s.sigs = make(map[string]Signature, len(blob.Sigs))
	for name, rows := range blob.Sigs {
		steps := make([]mathx.Vector, len(rows))
		for i, r := range rows {
			steps[i] = mathx.Vector(r)
		}
		s.sigs[name] = Signature{Name: name, Steps: steps}
	}
	s.ver.Add(1)
	return nil
}

// ResampleSeq block-averages seq down (or repeats up) to exactly n steps.
func ResampleSeq(seq []mathx.Vector, n int) []mathx.Vector {
	if len(seq) == 0 || n <= 0 {
		return nil
	}
	out := make([]mathx.Vector, n)
	for i := range out {
		out[i] = mathx.NewVector(len(seq[0]))
	}
	ResampleSeqInto(out, seq)
	return out
}

// ResampleSeqInto is the allocation-free core of ResampleSeq: it
// block-averages seq into the caller-shaped dst (len(dst) output steps, each
// row sized like seq's rows). The hot serve path stages the Watcher window
// through it every batch.
func ResampleSeqInto(dst, seq []mathx.Vector) {
	n := len(dst)
	for i := 0; i < n; i++ {
		lo := i * len(seq) / n
		hi := (i + 1) * len(seq) / n
		if hi <= lo {
			hi = lo + 1
		}
		m := dst[i]
		m.Zero()
		for _, r := range seq[lo:hi] {
			m.Add(r)
		}
		m.Scale(1 / float64(hi-lo))
	}
}

// CaptureSignature runs profile p alone on remote memory on a fresh
// simulated testbed and returns its metric trace — the paper's procedure
// for unknown applications ("schedules it on the remote memory, captures
// and stores the respective metrics").
func CaptureSignature(p *workload.Profile, seed int64) ([]mathx.Vector, error) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	c := cluster.New(cfg)
	in := c.Deploy(p, memsys.TierRemote)
	// LC apps run long; a capped capture window is plenty for a fingerprint.
	const captureCap = 600
	horizon := captureCap
	if p.Class != workload.LatencyCritical {
		horizon = int(p.BaseExecSec*p.RemotePenaltyIso*3) + 10
	}
	c.Run(float64(horizon))
	var trace []mathx.Vector
	for _, r := range c.History() {
		if in.Done() && r.Time > in.DoneAt {
			break
		}
		trace = append(trace, mathx.Vector(r.Sample.Vector()))
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("models: no trace captured for %s", p.Name)
	}
	return trace, nil
}

// BuildSignatures captures signatures for every profile in the registry's
// examined-application set (BE + LC) into a new store.
func BuildSignatures(reg *workload.Registry, seqLen int, seed int64) (*SignatureStore, error) {
	store := NewSignatureStore(seqLen)
	apps := append(append([]*workload.Profile(nil), reg.Spark()...), reg.LC()...)
	for i, p := range apps {
		trace, err := CaptureSignature(p, seed+int64(i))
		if err != nil {
			return nil, err
		}
		if err := store.Put(p.Name, trace); err != nil {
			return nil, err
		}
	}
	return store, nil
}
