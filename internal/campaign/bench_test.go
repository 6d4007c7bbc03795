package campaign

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/silicon"
	"repro/internal/workloads"
)

// discardSink accepts shards and keeps nothing, so a benchmark through it
// prices the engine, the runs and the streamer's one render per record,
// not a consumer.
type discardSink struct{}

func (discardSink) Shard([]core.RunRecord, []byte) error { return nil }

// fig4Grid is the Fig. 4 grid on one board: the ten SPEC CPU2006
// profiles at five PMD voltages, two repetitions each (100 runs, 50
// cells).
func fig4Grid() Grid {
	var setups []core.Setup
	for _, mv := range []float64{980, 960, 940, 920, 900} {
		s := core.NominalSetup(silicon.CoreID{})
		s.PMDVoltage = mv / 1000
		setups = append(setups, s)
	}
	return Grid{
		Name:        "fig4",
		Board:       Board{Corner: silicon.TTT, Seed: 0x5EED_F164},
		Benches:     workloads.SPEC2006(),
		Setups:      setups,
		Repetitions: 2,
	}
}

// BenchmarkRunGridFig4 prices one warm exhaustive campaign of the Fig. 4
// grid through a discarding sink, at one worker and at GOMAXPROCS.
// Every iteration is a fresh campaign seed on the same board, as a daemon
// serving repeated Fig. 4 submissions sees it.
func BenchmarkRunGridFig4(b *testing.B) {
	g := fig4Grid()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			// Warm-up: fabricate the board and simulate the counters.
			if _, err := RunGrid(Config{Workers: workers, Seed: 1, Sink: discardSink{}}, g); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunGrid(Config{Workers: workers, Seed: uint64(i + 2), Sink: discardSink{}}, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunGridFig4Allocs bounds the allocations of one warm Fig. 4 campaign
// at one worker through a discarding sink, the run BenchmarkRunGridFig4
// prices: the grid's runs, the ordering buffer and the streamer's one
// render per record. Measured on Go 1.24: 441 (541 while the streamer
// built frames). The slack of 20 absorbs toolchain drift; one more
// allocation per shard (50 shards) fails it.
func TestRunGridFig4Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	g := fig4Grid()
	run := func() {
		if _, err := RunGrid(Config{Workers: 1, Seed: 2, Sink: discardSink{}}, g); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: fabricate the board
	const bound = 441 + 20
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("RunGrid: %.0f allocs per warm Fig. 4 campaign", allocs)
	if allocs > bound {
		t.Errorf("RunGrid allocates %.0f objects per warm Fig. 4 campaign, want <= %d", allocs, bound)
	}
}

// BenchmarkRunGridFig4Cold prices the first Fig. 4 campaign of a fresh
// process: every iteration empties both fab pools, then runs the grid, so
// each pays the board's fabrication and the runs. The ten workloads'
// counters come from xgene's generated table, as in a fresh process.
func BenchmarkRunGridFig4Cold(b *testing.B) {
	g := fig4Grid()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				silicon.FabReset()
				dram.FabReset()
				if _, err := RunGrid(Config{Workers: workers, Seed: uint64(i + 1), Sink: discardSink{}}, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
