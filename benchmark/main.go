// Command benchmark is the repo's end-to-end benchmark: it runs one named
// workload against the real adrias-serve binary (or, for replay-quality,
// the paper's scenario replay in-process), checks every output, and prints
// the workload's metrics by name with their units. See README.md.
//
//	bash benchmark/run.sh --workload pair-dryrun --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -selfcheck
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":…,"unit":"ms"},…}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes benchmark/out/trace-<workload>.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// outDir receives trace and run-record files; ignored by git.
const outDir = "benchmark/out"

// runEnv is recorded at the start of every run.
type runEnv struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	Start      time.Time `json:"start"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	LoadAvg1   string    `json:"loadavg_1min"`
}

func captureEnv(workload string, seed int64, seconds int, trace bool) runEnv {
	env := runEnv{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Start: time.Now(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", LoadAvg1: "unknown",
	}
	// The driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			env.LoadAvg1 = f[0]
		}
	}
	return env
}

// runOne executes one workload in one mode.
func runOne(w *workloadDef, seed int64, seconds int, trace bool) (runResult, error) {
	switch {
	case trace:
		return runTrace(w, seed, seconds)
	case w.replay:
		return runReplayE2E(seed, seconds)
	default:
		return runServerE2E(w, seed, time.Duration(seconds)*time.Second)
	}
}

// resultLine renders the one-line JSON result the driver reads.
func resultLine(res runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]mv{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = mv{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a non-finite value can do this; report it as a failed run.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, max(res.attempted, 1), max(res.failed, 1))
	}
	return string(b)
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Int64("seed", 1, "workload seed: app sequence, arrival gaps, deploy positions, held-out scenarios")
	seconds := flag.Int("seconds", 20, "length of the measured window, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare against half of each bound (writes benchmark/NOISE.md)")
	flag.IntVar(&selfcheckRuns, "runs", 1, "with -selfcheck: runs per workload in each set, on seeds seed, seed+1, …")
	list := flag.Bool("list", false, "list the workloads and exit")
	stub := flag.Bool("stub-serve", false, "internal: run the loopback stub server the traced run measures net.loopback_us against")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the program's tables define it and exit")
	flag.Parse()

	if *stub {
		os.Exit(runStub())
	}

	// An interrupt must not leave a server or its scratch directory behind.
	// The goroutine lives as long as the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	if *manifest {
		fmt.Println(manifestJSON(*seconds))
		return
	}
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-15s %s\n", w.name, w.why)
		}
		return
	}
	if _, err := os.Stat("cmd/adrias-serve"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the root of an adrias checkout (cmd/adrias-serve not found)")
		os.Exit(2)
	}
	if *selfcheck {
		if selfcheckRuns < 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -runs must be at least 1")
			os.Exit(2)
		}
		os.Exit(runSelfcheck(*seed, *seconds))
	}
	w := findWorkload(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; -list names them\n", *workloadName)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		os.Exit(2)
	}

	env := captureEnv(w.name, *seed, *seconds, *trace != 0)
	res, err := runOne(w, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	writeRunRecord(env, res)
	fmt.Printf("workload %s seed %d seconds %d trace %d (nproc %d, GOMAXPROCS %d, %s, commit %s, load %s)\n",
		w.name, *seed, *seconds, *trace, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.LoadAvg1)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("attempted %d  succeeded %d  failed %d  correct %v\n", res.attempted, res.attempted-res.failed, res.failed, res.correct)
	fmt.Println(resultLine(res))
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON(runSeconds int) string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ") // plain strings and numbers: cannot fail
	return string(b)
}

// writeRunRecord stores the environment and the metrics of a run under
// benchmark/out, so a number can be traced back to the box that made it.
func writeRunRecord(env runEnv, res runResult) {
	rec := struct {
		Env       runEnv             `json:"env"`
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]float64 `json:"metrics"`
		Notes     []string           `json:"notes"`
	}{env, res.correct, res.attempted, res.failed, map[string]float64{}, res.notes}
	for _, m := range res.metrics {
		rec.Metrics[m.name] = m.value
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run record:", err)
		return
	}
	mode := "e2e"
	if env.Trace {
		mode = "trace"
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		err = os.WriteFile(filepath.Join(outDir, fmt.Sprintf("run-%s-%s.json", env.Workload, mode)), b, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: run record:", err)
		}
	}
}
