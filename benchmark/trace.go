package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function: which call, when,
// caused by which span, for which generated request.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Req     int    `json:"req"`
}

// spanKeep bounds the spans written out per name; every duration still
// enters the medians. The request tree is kept whole for spanKeep requests.
const spanKeep = 512

// tracer records spans in memory and writes them out when the run ends.
// With on == false it times the calls and keeps the durations but records
// no span — the "tracing off" side of trace.overhead_frac.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
	kept  map[string]int
	durs  map[string][]float64 // name → per-call nanoseconds
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), on: true, kept: map[string]int{}, durs: map[string][]float64{}}
}

// call times fn once under name. reps > 1 means fn itself loops reps times
// over a nanosecond-scale operation; the recorded duration is per
// operation. It returns the per-operation nanoseconds.
func (t *tracer) call(name, parent string, req, reps int, fn func()) float64 {
	start := time.Now()
	fn()
	return t.record(name, parent, req, reps, start, time.Now())
}

// record files one timed call: its per-operation duration always, its span
// while tracing is on and the name's quota lasts.
func (t *tracer) record(name, parent string, req, reps int, start, end time.Time) float64 {
	ns := float64(end.Sub(start)) / float64(reps)
	t.durs[name] = append(t.durs[name], ns)
	if t.on && t.kept[name] < spanKeep {
		t.kept[name]++
		t.spans = append(t.spans, span{name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)), parent, req})
	}
	return ns
}

// calls times n calls of fn(i) under name.
func (t *tracer) calls(name, parent string, n, reps int, fn func(i int)) {
	for i := 0; i < n; i++ {
		i := i
		t.call(name, parent, i, reps, func() { fn(i) })
	}
}

// medianNs is the median duration recorded under name, in nanoseconds.
func (t *tracer) medianNs(name string) float64 { return median(t.durs[name]) }

// count is how many calls were timed under name.
func (t *tracer) count(name string) int { return len(t.durs[name]) }

// traceFile is the document written to benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Note     string             `json:"note"`
	Tree     map[string]string  `json:"tree"` // span name → parent
	Summary  []traceSummary     `json:"summary"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

type traceSummary struct {
	Name     string  `json:"name"`
	Calls    int     `json:"calls"`
	MedianNs float64 `json:"median_ns"`
	P90Ns    float64 `json:"p90_ns"`
}

// write stores the spans, a per-name summary and the derived metrics.
func (t *tracer) write(workload string, seed int64, tree map[string]string, metrics []metric) (string, error) {
	doc := traceFile{
		Workload: workload, Seed: seed, Tree: tree, Spans: t.spans, Metrics: map[string]float64{},
		Note: "spans are separate calls on the same generated request, made from outside the program: " +
			"a parent's self time is its median minus the sum of its children's medians; " +
			"at most " + fmt.Sprint(spanKeep) + " spans per name are listed, medians cover every call",
	}
	for _, m := range metrics {
		doc.Metrics[m.name] = m.value
	}
	names := make([]string, 0, len(t.durs))
	for n := range t.durs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := append([]float64(nil), t.durs[n]...)
		sort.Float64s(d)
		doc.Summary = append(doc.Summary, traceSummary{n, len(d), median(d), d[(len(d)*9)/10]})
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
