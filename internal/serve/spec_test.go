package serve

import (
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/silicon"
	"repro/internal/xgene"
)

// TestResolveCoreMatchesServer pins that resolving a named core on the die
// alone picks the same core a full server of the board reports, for every
// corner and both roles.
func TestResolveCoreMatchesServer(t *testing.T) {
	for _, corner := range silicon.Corners() {
		for _, seed := range []uint64{1, 7, 0xfeed} {
			srv, err := xgene.NewServer(xgene.Options{Corner: corner, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for role, want := range map[string]silicon.CoreID{
				"robust":  srv.Chip().MostRobustCore(),
				"weakest": srv.Chip().WeakestCore(),
			} {
				spec := Spec{Seed: seed, Corner: corner.String(), Core: role, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, Repetitions: 1}
				_, got, _, err := spec.withDefaults().resolve()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%v seed %d %s: resolved %v, server reports %v", corner, seed, role, got, want)
				}
			}
		}
	}
}

// TestSpecMaterializationFabricatesNoDRAM pins that turning a spec into a
// grid or schedule never fabricates a DRAM population: only a run that
// scans memory does.
func TestSpecMaterializationFabricatesNoDRAM(t *testing.T) {
	dram.FabReset()
	for i, core := range []string{"robust", "weakest", "pmd1.c0"} {
		exh := Spec{Seed: 3, BoardSeed: 0x51ab + uint64(i), Core: core, Benches: []string{"mcf"}, VoltagesMV: []float64{980}, TREFPMillis: 2283, Repetitions: 1}
		if _, err := exh.Grid(); err != nil {
			t.Fatal(err)
		}
		ada := Spec{Seed: 3, BoardSeed: 0x61ab + uint64(i), Core: core, Strategy: StrategyAdaptive, Benches: []string{"mcf"}, Repetitions: 1}
		if _, err := ada.Schedule(); err != nil {
			t.Fatal(err)
		}
	}
	if n := dram.FabStats().Misses; n != 0 {
		t.Fatalf("Grid/Schedule fabricated %d DRAM populations, want 0", n)
	}
}

// TestAdaptiveNewBoardFabricatesNoDRAM submits adaptive Vmin descents on
// unseen boards at nominal refresh: each finishes done without ever
// materializing a DRAM population, so a stream of new boards does not
// fill the DRAM fab pool.
func TestAdaptiveNewBoardFabricatesNoDRAM(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	dram.FabReset()
	for i := 0; i < 3; i++ {
		spec := Spec{
			Name:        fmt.Sprintf("vmin-%d", i),
			Strategy:    StrategyAdaptive,
			BoardSeed:   0x7e57b0a4d + uint64(i),
			Seed:        uint64(i + 1),
			Benches:     []string{"mcf"},
			Repetitions: 2,
		}
		c, cached, err := s.Submit(spec, "", "")
		if err != nil || cached {
			t.Fatalf("submit %d: cached %v, err %v", i, cached, err)
		}
		waitForStatus(t, s, c.id, StatusDone)
	}
	if n := dram.FabStats().Misses; n != 0 {
		t.Fatalf("adaptive Vmin on new boards fabricated %d DRAM populations, want 0", n)
	}
}
