package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// suite is shared across tests: the corpus and trained models are the
// expensive artifacts, and every experiment is designed to reuse them.
var suite = NewSuite(Fast())

func TestScalesWellFormed(t *testing.T) {
	for _, s := range []Scale{Fast(), Medium(), Paper()} {
		if s.Name == "" {
			t.Error("scale without name")
		}
		if len(s.Corpus.Configs()) == 0 {
			t.Errorf("%s: empty corpus", s.Name)
		}
		if s.Window.HistTicks%s.Window.Stride != 0 {
			t.Errorf("%s: history not divisible by stride", s.Name)
		}
		if len(s.Betas) == 0 || s.EvalScenarios == 0 {
			t.Errorf("%s: missing orchestration settings", s.Name)
		}
	}
	if len(Paper().Corpus.Configs()) != 72 {
		t.Errorf("paper corpus = %d scenarios, want 72", len(Paper().Corpus.Configs()))
	}
}

func TestRegistryAndByID(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("experiments = %d, want 18", len(all))
	}
	seen := map[string]bool{}
	for _, d := range all {
		if seen[d.ID] {
			t.Fatalf("duplicate id %s", d.ID)
		}
		seen[d.ID] = true
		got, err := ByID(d.ID)
		if err != nil || got.ID != d.ID {
			t.Errorf("ByID(%s) = %v, %v", d.ID, got.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Paper: "p"}
	r.Addf("line %d", 1)
	r.Checkf(true, "good", "fine")
	r.Checkf(false, "bad", "broken")
	out := r.Render()
	for _, want := range []string{"== x — t ==", "paper: p", "line 1", "[PASS] good", "[FAIL] bad"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if r.Passed() {
		t.Error("report with failed check should not pass")
	}
}

// TestAllExperimentsPassAtFastScale is the repository's paper-shape
// regression test: every table and figure regenerates and all qualitative
// checks hold.
func TestAllExperimentsPassAtFastScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, d := range All() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			rep, err := d.Run(suite)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.Checks {
				if !c.Pass {
					t.Errorf("[%s] %s: %s", rep.ID, c.Name, c.Detail)
				}
			}
			if len(rep.Lines) == 0 {
				t.Error("report has no data lines")
			}
			t.Log("\n" + rep.Render())
		})
	}
}

func TestQoSLevelsOrdered(t *testing.T) {
	levels, err := suite.QoSLevels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) == 0 {
		t.Fatal("no QoS levels")
	}
	for app, lv := range levels {
		if len(lv) != 5 {
			t.Fatalf("%s: %d levels, want 5", app, len(lv))
		}
		for i := 1; i < len(lv); i++ {
			if lv[i] > lv[i-1] {
				t.Errorf("%s: levels not loosest-to-strictest: %v", app, lv)
			}
		}
	}
}

func TestMedianOf(t *testing.T) {
	if medianOf(nil) != 0 {
		t.Error("empty median should be 0")
	}
	if medianOf([]float64{3, 1, 2}) != 2 {
		t.Error("odd median wrong")
	}
	if medianOf([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median wrong")
	}
}

// TestMedianDropVsOrderIndependent: Fig. 16's average median drop is one
// float sum over apps, so it must not depend on Go's random map order —
// repeated calls over the same outcomes are bit-identical.
func TestMedianDropVsOrderIndependent(t *testing.T) {
	self, ref := &evalOutcome{beExec: map[string][]float64{}}, &evalOutcome{beExec: map[string][]float64{}}
	x := 0.3
	next := func() float64 { x = math.Mod(x*9301+0.49297, 1); return x } // irregular, seeded
	for i := 0; i < 24; i++ {
		app := fmt.Sprintf("app-%02d", i)
		self.beExec[app] = []float64{10 + 90*next(), 10 + 90*next(), 10 + 90*next()}
		ref.beExec[app] = []float64{10 + 90*next(), 10 + 90*next()}
	}
	want := self.medianDropVs(ref)
	for i := 0; i < 200; i++ {
		if got := self.medianDropVs(ref); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: %v, first call %v", i, got, want)
		}
	}
}
