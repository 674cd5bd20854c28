package adrias_test

// The benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (DESIGN.md §4 maps each to its experiment id). Each
// benchmark regenerates the artifact on the simulated testbed, reports the
// headline quantity via b.ReportMetric, and fails if a qualitative shape
// check diverges from the paper. Heavy shared state (the trace corpus and
// the trained models) is built once and reused across benchmarks.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The fuller campaigns live in cmd/adrias-bench (-scale medium|paper).

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"adrias"
	"adrias/internal/dataset"
	"adrias/internal/experiments"
	"adrias/internal/models"
)

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

func suiteForBench() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Fast())
	})
	return benchSuite
}

// runExperiment executes one experiment per benchmark iteration and
// verifies its shape checks.
func runExperiment(b *testing.B, id string) *experiments.Report {
	b.Helper()
	d, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	s := suiteForBench()
	var rep *experiments.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = d.Run(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, c := range rep.Checks {
		if !c.Pass {
			b.Errorf("[%s] shape check %s failed: %s", id, c.Name, c.Detail)
		}
	}
	if testing.Verbose() {
		b.Log("\n" + rep.Render())
	}
	return rep
}

// metricFromLine extracts the last float on the first report line that
// contains key (a crude but stable way to surface headline numbers).
func metricFromLine(rep *experiments.Report, key string) (float64, bool) {
	for _, l := range rep.Lines {
		if !strings.Contains(l, key) {
			continue
		}
		fields := strings.Fields(l)
		for i := len(fields) - 1; i >= 0; i-- {
			v := strings.TrimSuffix(strings.TrimSuffix(fields[i], "%"), "ms")
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f, true
			}
		}
	}
	return 0, false
}

// BenchmarkFig2Limits regenerates Fig. 2: fabric throughput cap and
// back-pressure latency under 1–32 remote memory-bandwidth hogs.
func BenchmarkFig2Limits(b *testing.B) {
	rep := runExperiment(b, "fig2")
	for _, l := range rep.Lines {
		fields := strings.Fields(l)
		if len(fields) >= 2 && fields[0] == "32" {
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				b.ReportMetric(v, "cap-Gbps")
			}
		}
	}
}

// BenchmarkFig3TailLatency regenerates Fig. 3: LC tail latency in
// isolation, local vs remote, across the client-load sweep.
func BenchmarkFig3TailLatency(b *testing.B) {
	runExperiment(b, "fig3")
}

// BenchmarkFig4SparkIsolation regenerates Fig. 4: per-app remote/local
// execution-time ratios for the 17 Spark workloads.
func BenchmarkFig4SparkIsolation(b *testing.B) {
	rep := runExperiment(b, "fig4")
	if v, ok := metricFromLine(rep, "average"); ok {
		b.ReportMetric(v, "mean-remote/local")
	}
}

// BenchmarkFig5Heatmap regenerates Fig. 5: the interference heatmap and the
// remote-vs-local chasm beyond fabric saturation.
func BenchmarkFig5Heatmap(b *testing.B) {
	runExperiment(b, "fig5")
}

// BenchmarkFig6Correlation regenerates Fig. 6: Pearson correlation of
// prior/during system metrics with application performance.
func BenchmarkFig6Correlation(b *testing.B) {
	runExperiment(b, "fig6")
}

// BenchmarkFig8Scenarios regenerates Fig. 8: scenario dynamics across spawn
// intervals.
func BenchmarkFig8Scenarios(b *testing.B) {
	runExperiment(b, "fig8")
}

// BenchmarkFig9SparkDistributions regenerates Fig. 9: corpus-wide Spark
// performance distributions per memory tier.
func BenchmarkFig9SparkDistributions(b *testing.B) {
	runExperiment(b, "fig9")
}

// BenchmarkFig10LCDistributions regenerates Fig. 10: corpus-wide LC tail
// latency distributions per memory tier.
func BenchmarkFig10LCDistributions(b *testing.B) {
	runExperiment(b, "fig10")
}

// BenchmarkTable1SystemState regenerates Table I: per-event R² of the
// system-state model.
func BenchmarkTable1SystemState(b *testing.B) {
	rep := runExperiment(b, "table1")
	if v, ok := metricFromLine(rep, "Avg."); ok {
		b.ReportMetric(v, "R2-avg")
	}
}

// BenchmarkFig12Residuals regenerates Fig. 12: actual-vs-predicted
// residual-line fits for the system-state model.
func BenchmarkFig12Residuals(b *testing.B) {
	runExperiment(b, "fig12")
}

// BenchmarkFig13BEAccuracy regenerates Fig. 13: BE performance-model
// accuracy and the Ŝ-source ablation.
func BenchmarkFig13BEAccuracy(b *testing.B) {
	rep := runExperiment(b, "fig13")
	if v, ok := metricFromLine(rep, "{120,Ŝ}"); ok {
		b.ReportMetric(v, "R2-deploy")
	}
}

// BenchmarkFig14LCAccuracy regenerates Fig. 14: LC performance-model
// accuracy.
func BenchmarkFig14LCAccuracy(b *testing.B) {
	runExperiment(b, "fig14")
}

// BenchmarkFig15Generalization regenerates Fig. 15: leave-one-out
// generalization and the sample-count sweep.
func BenchmarkFig15Generalization(b *testing.B) {
	runExperiment(b, "fig15")
}

// BenchmarkFig16Orchestration regenerates Fig. 16: the scheduler comparison
// with the Adrias β sweep.
func BenchmarkFig16Orchestration(b *testing.B) {
	runExperiment(b, "fig16")
}

// BenchmarkFig17QoS regenerates Fig. 17: LC QoS violations and offloads per
// scheduler and QoS level.
func BenchmarkFig17QoS(b *testing.B) {
	runExperiment(b, "fig17")
}

// BenchmarkTrafficReduction regenerates the data-traffic comparison of
// §VI-B's closing paragraph.
func BenchmarkTrafficReduction(b *testing.B) {
	runExperiment(b, "traffic")
}

// BenchmarkPerfFitWorkers trains the BE performance model on the suite's
// corpus with a sequential (workers=1) and a fully parallel
// (workers=GOMAXPROCS) trainer, so CI records the data-parallel speedup on
// real model training rather than a synthetic net. On a single-core host
// only the workers=1 sub-benchmark runs.
func BenchmarkPerfFitWorkers(b *testing.B) {
	s := suiteForBench()
	sys, err := s.System()
	if err != nil {
		b.Fatal(err)
	}
	be, _, err := s.PerfSamples()
	if err != nil {
		b.Fatal(err)
	}
	train, _ := dataset.Split(len(be), 0.6, 1)

	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := s.Scale.Perf
			cfg.Workers = w
			// Train on actual futures so the benchmark does not depend on
			// attached Ŝ predictions.
			cfg.TrainFuture = models.Future120Actual
			cfg.EvalFuture = models.Future120Actual
			for i := 0; i < b.N; i++ {
				m := models.NewPerfModel(cfg, sys.Pred.Sigs)
				if err := m.Fit(be, train); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainFast times the offline phase every server boot runs,
// adrias.Train(FastOptions()): trace collection, signature capture and the
// three model fits on their two lanes. scripts/bench_gate.sh records the
// median of six one-iteration runs as train_fast_s.
func BenchmarkTrainFast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := adrias.Train(adrias.FastOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
