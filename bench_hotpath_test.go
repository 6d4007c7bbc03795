package guardband

// Hot-path micro-benchmarks behind BENCH_hotpath.json: the three costs the
// cross-layer overhaul collapsed — cache-access cost inside the simulator,
// workload simulation (cold vs the process-wide memo), and board
// fabrication (cold vs the process-wide fab pools). Reproduce with:
//
//	go test -run '^$' -bench 'BenchmarkHotPath' -benchtime 2s .
//
// The cold sub-benchmarks reset the relevant pool every iteration (or use
// never-repeating seeds), so they price the computation itself; the
// memo/pooled sub-benchmarks price the steady state every campaign run
// after the first actually pays.

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/microarch"
	"repro/internal/silicon"
	"repro/internal/simcache"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

// BenchmarkHotPathCacheAccess prices one Hierarchy.Access over a 16 MB
// pseudo-random address stream — the innermost loop of Simulate, ~2/3 of
// every pre-overhaul characterization run.
func BenchmarkHotPathCacheAccess(b *testing.B) {
	h, err := microarch.NewXGene2Hierarchy()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var addr uint64
	for i := 0; i < b.N; i++ {
		addr = addr*2862933555777941757 + 3037000493
		h.Access(addr % (16 << 20))
	}
}

// benchProfile is the workload the simulate benchmarks run; mcf is the
// paper's most memory-intensive SPEC profile.
func benchProfile(b *testing.B) workloads.Profile {
	b.Helper()
	p, err := workloads.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkHotPathSimulateCold prices one full 200k-instruction workload
// simulation — what every (workload, server) pair used to pay before the
// process-wide memo, 30+ times per Vmin descent.
func BenchmarkHotPathSimulateCold(b *testing.B) {
	p := benchProfile(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microarch.Simulate(p.Mix, p.Stream, 200000, 0xC0FFEE); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathSimulateMemo prices the same lookup through the warm
// process-wide memo — the cost every run after the first now pays.
func BenchmarkHotPathSimulateMemo(b *testing.B) {
	p := benchProfile(b)
	if _, err := simcache.Counters(p.Mix, p.Stream, 200000, 0xC0FFEE); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simcache.Counters(p.Mix, p.Stream, 200000, 0xC0FFEE); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathFabDRAMCold prices materializing a fresh 32 GB weak-cell
// population (never-repeating seeds, so every iteration misses the pool).
// A module fetches its population lazily, so WeakCellCount forces it.
func BenchmarkHotPathFabDRAMCold(b *testing.B) {
	cfg := dram.DefaultConfig()
	for i := 0; i < b.N; i++ {
		m, err := dram.NewModule(cfg, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		m.WeakCellCount()
	}
}

// BenchmarkHotPathNewServerPooled prices building a full server shell when
// the fab pools are warm — what the 2nd..Nth worker (or shard) of a fleet
// pays for a board another already fabricated.
func BenchmarkHotPathNewServerPooled(b *testing.B) {
	if _, err := xgene.NewServer(xgene.Options{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xgene.NewServer(xgene.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathNewServerCold prices the same construction with cold fab
// pools: the die is fabricated, while the DRAM population waits for the
// server's first memory scan.
func BenchmarkHotPathNewServerCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dram.FabReset()
		silicon.FabReset()
		b.StartTimer()
		if _, err := xgene.NewServer(xgene.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
