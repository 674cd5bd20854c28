package obs

import (
	"sync/atomic"
	"time"
)

// DecisionRecord is one placement decision with the evidence that produced
// it — the paper's t̂_local/t̂_remote, the β slack, and the QoS constraint —
// so an operator can answer "why did this app land on that tier?" after the
// fact. TraceID links the record to its /debug/traces entry.
type DecisionRecord struct {
	TraceID     string    `json:"trace_id,omitempty"`
	Time        time.Time `json:"time"`
	SimTime     float64   `json:"sim_time_s,omitempty"`
	App         string    `json:"app"`
	Class       string    `json:"class"`
	Tier        string    `json:"tier"`
	Node        int       `json:"node,omitempty"`
	PredLocalS  float64   `json:"pred_local_s,omitempty"`
	PredRemoteS float64   `json:"pred_remote_s,omitempty"`
	Beta        float64   `json:"beta,omitempty"`
	QoSMs       float64   `json:"qos_ms,omitempty"`
	ColdStart   bool      `json:"cold_start,omitempty"`
	Fallback    bool      `json:"fallback,omitempty"`
	Reason      string    `json:"reason"`
	BatchSize   int       `json:"batch_size,omitempty"`
	// ModelGen is the live model generation that produced the decision
	// (0 when the online learning loop is disabled), so post-swap decision
	// mixes can be attributed to the model that made them.
	ModelGen int `json:"model_gen,omitempty"`
	// Replica is the 1-based replica shard that decided the placement (1:
	// the engine's own decider; 0 on lifecycle records), so swap
	// propagation across the scale-out tier is auditable per decider.
	Replica int `json:"replica,omitempty"`
	// Event marks non-decision lifecycle records interleaved in the log —
	// currently "model-swap", recorded when the learning loop promotes a
	// retrained candidate.
	Event string `json:"event,omitempty"`
	// SLOState is the overall SLO verdict at decision time ("ok", "warn",
	// "page"; empty when no SLO engine is attached), so the audit log can be
	// sliced by system health after the fact.
	SLOState string `json:"slo_state,omitempty"`
}

// AuditLog retains the most recent decision records in a fixed-size ring,
// same lock-cheap discipline as the Tracer: one atomic increment to claim a
// slot, one atomic pointer store to publish.
type AuditLog struct {
	slots []atomic.Pointer[auditEntry]
	next  atomic.Uint64
}

type auditEntry struct {
	rec DecisionRecord
	seq uint64
}

// NewAuditLog returns an audit log retaining the last capacity decisions
// (minimum 1).
func NewAuditLog(capacity int) *AuditLog {
	if capacity < 1 {
		capacity = 1
	}
	return &AuditLog{slots: make([]atomic.Pointer[auditEntry], capacity)}
}

// Record appends one decision, evicting the oldest once the ring is full.
func (l *AuditLog) Record(r DecisionRecord) {
	e := &auditEntry{rec: r, seq: l.next.Add(1)}
	l.slots[(e.seq-1)%uint64(len(l.slots))].Store(e)
}

// Total returns the number of decisions ever recorded.
func (l *AuditLog) Total() uint64 { return l.next.Load() }

// Capacity returns the ring size.
func (l *AuditLog) Capacity() int { return len(l.slots) }

// Snapshot returns the retained records, oldest first.
func (l *AuditLog) Snapshot() []DecisionRecord {
	type seqRec struct {
		seq uint64
		rec DecisionRecord
	}
	tmp := make([]seqRec, 0, len(l.slots))
	for i := range l.slots {
		if p := l.slots[i].Load(); p != nil {
			tmp = append(tmp, seqRec{seq: p.seq, rec: p.rec})
		}
	}
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j-1].seq > tmp[j].seq; j-- {
			tmp[j-1], tmp[j] = tmp[j], tmp[j-1]
		}
	}
	out := make([]DecisionRecord, len(tmp))
	for i, t := range tmp {
		out[i] = t.rec
	}
	return out
}

// Find returns the retained record with the given trace ID, if any.
func (l *AuditLog) Find(traceID string) (DecisionRecord, bool) {
	for i := range l.slots {
		if p := l.slots[i].Load(); p != nil && p.rec.TraceID == traceID {
			return p.rec, true
		}
	}
	return DecisionRecord{}, false
}
