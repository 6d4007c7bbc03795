package xgene

import (
	"testing"

	"repro/internal/silicon"
	"repro/internal/workloads"
)

// TestRunAllocFree pins the steady-state allocation behaviour of the run
// hot path: after warmup (simcache populated), a clean characterization
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
		t.Fatal(err) // warmup: populate the simcache memo
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
