package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing. A trace ID is minted once at admission and rides the
// request through the whole placement pipeline — batch coalescing, the
// engine, the predictor, the decision — by context. Per-stage spans are
// collected in a SpanRecorder attached to the batch context (one recorder
// per coalesced batch: the model stages run once for the whole batch, so
// their spans are shared by every trace in it) and the assembled traces land
// in a Tracer ring buffer for /debug/traces.

// Span is one named, timed pipeline stage.
type Span struct {
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"-"`
}

// Trace is one request's journey through the pipeline.
type Trace struct {
	ID     string    `json:"id"`
	App    string    `json:"app,omitempty"`
	Start  time.Time `json:"start"`
	Stages []Span    `json:"stages"`
	seq    uint64    // ring ordering
}

// traceIDPrefix makes IDs unique across processes; the counter makes them
// unique within one.
var (
	traceIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to a fixed prefix; the counter still disambiguates
			// within the process.
			return "adr0"
		}
		return hex.EncodeToString(b[:])
	}()
	traceIDNext atomic.Uint64
)

// NewTraceID mints a process-unique trace ID (random process prefix plus an
// atomic counter — no locks, no time dependency).
func NewTraceID() string {
	return fmt.Sprintf("%s-%x", traceIDPrefix, traceIDNext.Add(1))
}

// SpanRecorder accumulates the spans of one coalesced batch. Safe for
// concurrent use (stages may be recorded from worker goroutines).
type SpanRecorder struct {
	mu    sync.Mutex
	spans []Span
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder { return &SpanRecorder{} }

// Add records one completed span.
func (r *SpanRecorder) Add(name string, start time.Time, dur time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Start: start, Dur: dur})
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order.
func (r *SpanRecorder) Spans() []Span { return r.AppendTo(nil) }

// AppendTo appends the recorded spans to dst in recording order.
func (r *SpanRecorder) AppendTo(dst []Span) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(dst, r.spans...)
}

// Reset forgets the recorded spans and keeps their storage, so one recorder
// can serve batch after batch.
func (r *SpanRecorder) Reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

type recorderKey struct{}

// WithRecorder attaches a span recorder to the context.
func WithRecorder(ctx context.Context, r *SpanRecorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom returns the context's span recorder, or nil.
func RecorderFrom(ctx context.Context) *SpanRecorder {
	r, _ := ctx.Value(recorderKey{}).(*SpanRecorder)
	return r
}

// StartSpan begins a named stage. The returned func records the span when
// called; when the context carries no recorder both halves are no-ops, so
// instrumented hot paths cost one context lookup when tracing is off.
func StartSpan(ctx context.Context, name string) func() {
	r := RecorderFrom(ctx)
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.Add(name, start, time.Since(start)) }
}

// Tracer retains the most recent traces in a fixed-size ring and maintains
// per-stage duration histograms for percentile summaries. Writers claim a
// slot with one atomic increment and publish the trace with one atomic
// pointer store — recording never takes the lock scrapers use.
type Tracer struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64

	mu         sync.RWMutex
	stages     map[string]*Histogram
	stageOrder []string
}

// NewTracer returns a tracer retaining the last capacity traces
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		slots:  make([]atomic.Pointer[Trace], capacity),
		stages: make(map[string]*Histogram),
	}
}

// Record stores one trace in the ring (evicting the oldest once full) and
// folds its stage durations into the percentile summaries.
func (t *Tracer) Record(tr Trace) {
	tr.seq = t.next.Add(1)
	t.slots[(tr.seq-1)%uint64(len(t.slots))].Store(&tr)
	for _, s := range tr.Stages {
		t.stageHist(s.Name).ObserveDuration(s.Dur)
	}
}

func (t *Tracer) stageHist(name string) *Histogram {
	t.mu.RLock()
	h := t.stages[name]
	t.mu.RUnlock()
	if h != nil {
		return h
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.stages[name]; h != nil {
		return h
	}
	h = new(Histogram)
	*h = NewHistogram(DefaultLatencyBuckets())
	t.stages[name] = h
	t.stageOrder = append(t.stageOrder, name)
	return h
}

// Total returns the number of traces ever recorded (not capped by the ring).
func (t *Tracer) Total() uint64 { return t.next.Load() }

// Capacity returns the ring size.
func (t *Tracer) Capacity() int { return len(t.slots) }

// Snapshot returns the retained traces, oldest first. Under concurrent
// recording the snapshot is a consistent-enough read for debugging: each
// slot is read atomically and stale slots are ordered by sequence.
func (t *Tracer) Snapshot() []Trace {
	out := make([]Trace, 0, len(t.slots))
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	// Ring order is insertion order modulo capacity; sort by sequence.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].seq > out[j].seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Find returns the retained trace with the given ID, if still in the ring.
func (t *Tracer) Find(id string) (Trace, bool) {
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil && p.ID == id {
			return *p, true
		}
	}
	return Trace{}, false
}

// StageStats summarizes one pipeline stage across retained history.
type StageStats struct {
	Count uint64  `json:"count"`
	P50s  float64 `json:"p50_s"`
	P90s  float64 `json:"p90_s"`
	P99s  float64 `json:"p99_s"`
	MeanS float64 `json:"mean_s"`
}

// StageSummary returns per-stage percentile summaries in first-seen order.
func (t *Tracer) StageSummary() ([]string, map[string]StageStats) {
	t.mu.RLock()
	order := append([]string(nil), t.stageOrder...)
	hists := make(map[string]*Histogram, len(t.stages))
	for n, h := range t.stages {
		hists[n] = h
	}
	t.mu.RUnlock()
	out := make(map[string]StageStats, len(hists))
	for n, h := range hists {
		st := StageStats{
			Count: h.Count(),
			P50s:  h.Quantile(0.50),
			P90s:  h.Quantile(0.90),
			P99s:  h.Quantile(0.99),
		}
		if st.Count > 0 {
			st.MeanS = h.Sum() / float64(st.Count)
		}
		out[n] = st
	}
	return order, out
}
