package xgene

import (
	"testing"

	"repro/internal/silicon"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

// TestRunAllocFree pins the steady-state allocation behaviour of the run
// hot path: after warmup (the profile prepared), a clean characterization
// run must not allocate at all. This guards the interned split labels
// (no fmt.Sprintf) and the bitmask duplicate-core check (no map) against
// regressions.
func TestRunAllocFree(t *testing.T) {
	s := newTTT(t)
	p, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec := allCoresSpec(p, 1)
	if _, err := s.Run(spec); err != nil {
		t.Fatal(err) // warmup: prepare the profile
	}
	allocs := testing.AllocsPerRun(200, func() {
		spec.Seed++
		res, err := s.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeOK {
			t.Fatalf("nominal-voltage run not OK: %v", res.Outcome)
		}
	})
	if allocs != 0 {
		t.Errorf("Run allocates %.1f objects/op at steady state, want 0", allocs)
	}
}

// TestRunThroughTableAllocFree bounds a run that looks its counters up in
// the built-in table: two built-in profiles alternate, so every run misses
// the server's prepared profile, validates and reads the table. Measured
// at 0 allocations on Go 1.24; the bound has no slack, since one
// allocation in the lookup is the regression it exists to catch. The
// simulate memo is never touched.
func TestRunThroughTableAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	s := newTTT(t)
	var specs [2]RunSpec
	for i, name := range []string{"mcf", "milc"} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = allCoresSpec(p, 1)
	}
	before := simcache.CountersStats()
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		n++
		spec := specs[n%2]
		spec.Seed = uint64(n)
		if _, err := s.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a run through the counters table allocates %.1f objects, want 0", allocs)
	}
	if after := simcache.CountersStats(); after != before {
		t.Errorf("built-in profiles touched the simulate memo: %+v -> %+v", before, after)
	}
}

// TestRunMultiAllocFree pins the same bound for the multi-programmed path.
func TestRunMultiAllocFree(t *testing.T) {
	s := newTTT(t)
	p, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	assignments := make([]Assignment, 0, len(allCoresSpec(p, 1).Cores))
	for _, id := range allCoresSpec(p, 1).Cores {
		assignments = append(assignments, Assignment{Core: id, Workload: p})
	}
	if _, err := s.RunMulti(assignments, 1); err != nil {
		t.Fatal(err)
	}
	seed := uint64(1)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		if _, err := s.RunMulti(assignments, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RunMulti allocates %.1f objects/op at steady state, want 0", allocs)
	}
}

// BenchmarkNewServerUnseenBoard prices booting a board no earlier server
// used: every iteration fabricates a fresh die, while the DRAM population
// waits for the server's first memory scan, so a campaign that never
// relaxes refresh never pays for it. allocs/op is deterministic.
func BenchmarkNewServerUnseenBoard(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewServer(Options{Corner: silicon.TTT, Seed: 0x9e3779b97f4a7c15 ^ uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
