package adrias

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

// Replay hashes recorded on the commit before the testbed's hot loop was
// rewritten (tails by selection, lazy child streams, tick-owned scratch).
// That rewrite, and any later one, must leave every simulated outcome
// bit-identical; a change that is meant to alter outcomes records new
// constants and says so.
const (
	goldenRandom   uint64 = 0x2f9df31e5c7c04ea
	goldenAllLocal uint64 = 0xd4926b899a0ac6ce
	goldenAdrias   uint64 = 0x7dbe7c35aa04b1b2
)

type replayHash struct{ h hash.Hash64 }

func (r replayHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	r.h.Write(b[:])
}

func (r replayHash) f64(v float64) { r.u64(math.Float64bits(v)) }

func (r replayHash) result(res scenario.Result) {
	for _, run := range res.Runs {
		r.u64(uint64(run.ID))
		r.u64(uint64(run.Tier))
		r.f64(run.StartAt)
		r.f64(run.DoneAt)
		r.f64(run.ExecTime)
		r.f64(run.P99Ms)
		r.f64(run.P999Ms)
	}
	for _, rec := range res.History {
		r.f64(rec.Time)
		for _, v := range rec.Sample.Vector() {
			r.f64(v)
		}
		r.u64(uint64(rec.Running))
	}
}

// TestScenarioReplayBitIdentical replays 12 held-out scenarios in the
// benchmark's replay shape under random placement, all-local and Adrias
// β = 0.8 (signature-capture hook wired, every completed run's captured
// trace folded in) and compares an FNV-64 over every outcome bit with the
// recorded constants.
func TestScenarioReplayBitIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("constants recorded on amd64 (math.Exp and friends differ in the last bit elsewhere)")
	}
	sys := system(t)
	orch := sys.Orchestrator(0.8)
	for _, p := range sys.Registry.LC() {
		orch.QoSMs[p.Name] = p.BaseP50Ms * 20
	}
	random := replayHash{fnv.New64a()}
	allLocal := replayHash{fnv.New64a()}
	adr := replayHash{fnv.New64a()}
	for s := int64(100100); s < 100112; s++ {
		cfg := ScenarioConfig{
			Seed: s, DurationSec: 900, SpawnMin: 5, SpawnMax: 30,
			IBenchShare: 0.35, KeepHistory: true,
		}
		res, err := scenario.Run(cfg, sys.Registry, nil)
		if err != nil {
			t.Fatal(err)
		}
		random.result(res)

		res, err = sys.RunScenario(cfg, WithRandomInterference(core.AllLocal{}, s^0xfeed))
		if err != nil {
			t.Fatal(err)
		}
		allLocal.result(res)

		cfg.OnComplete = func(in *workload.Instance, c *cluster.Cluster) {
			orch.OnComplete(in, c)
			for _, row := range orch.Watch.TraceBetween(c, in.StartAt, in.DoneAt) {
				for _, v := range row {
					adr.f64(v)
				}
			}
		}
		res, err = sys.RunScenario(cfg, WithRandomInterference(orch, s^0xfeed))
		if err != nil {
			t.Fatal(err)
		}
		adr.result(res)
	}
	if st := orch.Stats(); st.Remote == 0 || st.Remote == st.Total {
		t.Fatalf("Adrias pass placed %d of %d remotely; the replay no longer exercises both tiers", st.Remote, st.Total)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"random", random.h.Sum64(), goldenRandom},
		{"all-local", allLocal.h.Sum64(), goldenAllLocal},
		{"adrias", adr.h.Sum64(), goldenAdrias},
	} {
		if c.got != c.want {
			t.Errorf("%s replay hash = %#016x, want %#016x", c.name, c.got, c.want)
		}
	}
}
