package campaign

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/silicon"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

// discardSink accepts frame batches and keeps nothing, so a benchmark
// through it prices the engine, the runs and the encode-once frame path,
// not a consumer.
type discardSink struct{}

func (discardSink) Frames([]core.Frame) error { return nil }

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
// grid through a frame-capable sink, at one worker and at GOMAXPROCS.
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

// BenchmarkRunGridFig4Cold prices the first Fig. 4 campaign of a fresh
// process: every iteration empties the simulate memo and both fab pools,
// then runs the grid, so each pays ten counter simulations, the board's
// fabrication and the runs. At one worker the simulations run one after
// another; at GOMAXPROCS the cold phase spreads them over the workers.
func BenchmarkRunGridFig4Cold(b *testing.B) {
	g := fig4Grid()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simcache.CountersReset()
				silicon.FabReset()
				dram.FabReset()
				if _, err := RunGrid(Config{Workers: workers, Seed: uint64(i + 1), Sink: discardSink{}}, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
