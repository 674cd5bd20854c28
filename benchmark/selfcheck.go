package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// noisePath is where -selfcheck commits its table.
const noisePath = "benchmark/NOISE.md"

// selfcheckRuns is set by -runs: runs per workload in each of the two sets.
var selfcheckRuns = 1

// runChild runs one workload end to end in a fresh process of this same
// binary — the way the driver runs it — and returns its metrics.
func runChild(workload string, seed int64, seconds int) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: run not correct (%d failed)", workload, seed, res.Failed)
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles of Python's
// statistics.quantiles(values, n=4) (exclusive method) — the driver's
// measure of run-to-run spread. It needs at least two values.
func quartileSpread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	q := func(k int) float64 {
		j, delta := k*(n+1)/4, k*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// runSelfcheck runs every workload in two sets on this build and compares
// the sets the way the driver does: the second set's median may not be
// worse than the first's by more than half the metric's bound (the issue's
// margin; the driver allows the whole bound), and with -runs ≥ 2 each set's
// quartile spread must stay within the bound. The table goes to NOISE.md.
func runSelfcheck(seed int64, seconds int) int {
	start := time.Now()
	env := captureEnv("selfcheck", seed, seconds, false)
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for set := 0; set < 2; set++ {
		for _, w := range workloads {
			for r := 0; r < selfcheckRuns; r++ {
				s := seed + int64(r)
				fmt.Fprintf(os.Stderr, "selfcheck: set %d, %s, seed %d\n", set+1, w.name, s)
				m, err := runChild(w.name, s, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "selfcheck:", err)
					return 1
				}
				for k, v := range m {
					sets[set][key{w.name, k}] = append(sets[set][key{w.name, k}], v)
				}
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Benchmark noise self-check\n\n")
	fmt.Fprintf(&b, "`bash benchmark/run.sh -selfcheck -runs %d -seed %d -seconds %d`, two sets of runs of the same build.\n", selfcheckRuns, seed, seconds)
	fmt.Fprintf(&b, "Box: nproc %d, GOMAXPROCS %d, %s, commit %s, 1-min load at start %s; took %.0f s.\n\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.LoadAvg1, time.Since(start).Seconds())
	fmt.Fprintf(&b, "`drift` is how much worse the second set's median is than the first's (negative: better), as a share of the first;\n")
	fmt.Fprintf(&b, "it must stay within half the bound. `spread` is (Q3 − Q1) ÷ median over a set's runs (seeds %d…%d), which the\n", seed, seed+int64(selfcheckRuns)-1)
	fmt.Fprintf(&b, "driver requires within the bound and this benchmark aims to keep under a third of it (`-` with one run per set).\n\n")
	fmt.Fprintf(&b, "| workload | metric | set 1 median | set 2 median | drift | spread 1 | spread 2 | bound | verdict |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, c := sets[0][key{w.name, d.name}], sets[1][key{w.name, d.name}]
			if len(a) == 0 || len(c) == 0 {
				fmt.Fprintf(&b, "| %s | %s | missing | | | | | | FAIL |\n", w.name, d.name)
				failed++
				continue
			}
			ma, mc := median(a), median(c)
			drift := (mc - ma) / ma
			if d.better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			sp := [2]string{"-", "-"}
			if selfcheckRuns >= 2 {
				for i, vs := range [][]float64{a, c} {
					s := quartileSpread(vs)
					sp[i] = fmt.Sprintf("%.2f%%", 100*s)
					switch {
					case d.name == "setup_s":
					case s > d.bound:
						verdict = "FAIL (spread)"
					case s > d.bound/3 && verdict == "ok":
						verdict = "ok (spread above a third of the bound)"
					}
				}
			}
			if drift > d.bound/2 {
				verdict = "FAIL (drift)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				failed++
			}
			fmt.Fprintf(&b, "| %s | %s | %.6g | %.6g | %+.2f%% | %s | %s | %.0f%% | %s |\n",
				w.name, d.name, ma, mc, 100*drift, sp[0], sp[1], 100*d.bound, verdict)
		}
	}
	fmt.Print(b.String())
	if err := os.WriteFile(filepath.FromSlash(noisePath), []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "selfcheck: %d workload × metric pairs outside their margin\n", failed)
		return 1
	}
	return 0
}
