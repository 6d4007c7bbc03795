package campaign

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
	"repro/internal/xgene"
	"repro/internal/xrand"
)

// Grid is a plain characterization grid: every benchmark at every setup,
// repetitions times each — the sharded equivalent of
// core.Framework.Campaign, with one shard per (benchmark, setup) cell.
type Grid struct {
	// Name labels the grid; it prefixes shard names (and therefore keys
	// the derived seeds), so two grids under the same campaign seed draw
	// independent run variation.
	Name string
	// Board is the simulated server every cell characterizes.
	Board Board
	// Benches and Setups span the grid.
	Benches []workloads.Profile
	Setups  []core.Setup
	// Repetitions per cell (the paper runs ten).
	Repetitions int
	// Boards, when above 1, runs every cell on a fleet of distinct-seed
	// boards of the grid's corner: board 0 is the Board.Seed population and
	// the rest derive via FleetBoardSeed. Each cell's records cover the
	// fleet board-major (board 0's repetitions, then board 1's, ...), with
	// per-board repetition seed streams so no two boards replay the same
	// run variation. 0 or 1 means the classic single-board grid,
	// byte-identical to pre-fleet output.
	Boards int
}

// Validate reports grid construction errors.
func (g Grid) Validate() error {
	if g.Name == "" {
		return errors.New("campaign: grid needs a name")
	}
	if len(g.Benches) == 0 || len(g.Setups) == 0 {
		return errors.New("campaign: grid needs benchmarks and setups")
	}
	if g.Repetitions <= 0 {
		return errors.New("campaign: grid repetitions must be positive")
	}
	if g.Boards < 0 {
		return errors.New("campaign: grid boards must be non-negative")
	}
	return nil
}

// GridReport is a completed grid campaign.
type GridReport struct {
	// Records holds every run in deterministic grid order (benchmark-major,
	// then setup, then repetition) — the same order the serial
	// core.Framework.Campaign produces.
	Records []core.RunRecord
	// Stats is the campaign-level aggregate.
	Stats Stats
	// Tally is the engine's measure of its own execution (see Tally).
	Tally Tally
	// Workers is the resolved worker count.
	Workers int
}

// Interned split labels of a cell's repetition seed streams.
var (
	gridRepsLabel  = xrand.NewLabel("grid/reps")
	gridBoardLabel = xrand.NewLabel("grid/board/")
)

// RunGrid executes a grid across the worker pool. Each (benchmark, setup)
// cell is one shard; within a cell, repetition seeds derive from the
// shard's seed via xrand, so no two cells (and no two repetitions) share
// RNG state and the result is independent of worker count. As with Run,
// a shard error (or cancellation) is returned alongside the report, which
// keeps the completed cells' records and bookkeeping; only configuration
// errors yield a nil report.
func RunGrid(cfg Config, g Grid) (*GridReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	boards := g.Boards
	if boards < 1 {
		boards = 1
	}
	// A cell's records are its Result.Records; the shards return nothing.
	shards := make([]Shard[struct{}], 0, len(g.Benches)*len(g.Setups))
	for bi, bench := range g.Benches {
		for si, setup := range g.Setups {
			shards = append(shards, Shard[struct{}]{
				// "<grid>/b<bi>/<bench>/s<si>": the shard name keys the
				// cell's seed, so these bytes are fixed.
				Name:   g.Name + "/b" + strconv.Itoa(bi) + "/" + bench.Name + "/s" + strconv.Itoa(si),
				Board:  g.Board,
				Boards: boards,
				// Every cell emits exactly fleet-size x repetitions
				// records, which is what lets an interrupted grid resume
				// from a checkpoint trimmed to cell boundaries.
				Expected: boards * g.Repetitions,
				Run: func(ctx *Ctx) (struct{}, error) {
					for b := 0; b < boards; b++ {
						_, fw, err := ctx.FleetBoard(b)
						if err != nil {
							return struct{}{}, err
						}
						// A one-board fleet keeps the pre-fleet stream label,
						// so classic grids reproduce byte-identically; fleet
						// boards each split their own repetition stream,
						// "grid/board/<b>/reps".
						label := gridRepsLabel
						if boards > 1 {
							label = gridBoardLabel.Int(b).Str("/reps")
						}
						reps := xrand.New(ctx.Seed).SplitLabel(label)
						for rep := 0; rep < g.Repetitions; rep++ {
							if _, err := fw.ExecuteRun(bench, setup, rep, reps.Uint64()); err != nil {
								return struct{}{}, err
							}
						}
					}
					return struct{}{}, nil
				},
			})
		}
	}
	// Cells a resume restores run nothing, and cells are bench-major, so
	// the benchmarks before the first unrestored cell need no counters.
	restored := len(cfg.Resume) / (boards * g.Repetitions * len(g.Setups))
	start := time.Now()
	if cfg.Context == nil || cfg.Context.Err() == nil {
		simulateCold(g.Benches[min(restored, len(g.Benches)):], cfg.effectiveWorkers(len(shards)))
	}
	cold := time.Since(start)
	rep, err := Run(cfg, shards)
	if rep == nil {
		return nil, err
	}
	// Mirror Run's contract: on a shard error or cancellation the report
	// is still returned, so partial records and bookkeeping survive.
	out := &GridReport{Stats: rep.Stats, Tally: rep.Tally, Workers: rep.Workers}
	out.Tally.Wall += cold
	out.Records = make([]core.RunRecord, 0, rep.Stats.Runs+rep.Stats.Restored)
	for _, cell := range rep.Results {
		out.Records = append(out.Records, cell.Records...)
	}
	return out, err
}

// simulateCold is the grid's cold phase. Counter simulation costs ~10 ms
// per workload and is memoized process-wide (xgene.SimulateCounters), and
// shards run bench-major, so on a cold memo every worker's first shards
// share one workload: the second worker waits in the single-flight memo
// on the first worker's simulation instead of starting the next, and the
// workloads simulate one after another. simulateCold pays the
// simulations of the benchmarks not yet memoized side by side across the
// campaign's workers before the first shard runs. It fans out only when
// at least two workloads are cold and two workers can share them, so a
// warm campaign asks the memo once per benchmark and starts no
// goroutine. Duplicate profiles coalesce in the memo.
func simulateCold(benches []workloads.Profile, workers int) {
	if workers < 2 {
		return
	}
	var cold []int
	for i := range benches {
		if !xgene.CountersCached(benches[i]) {
			cold = append(cold, i)
		}
	}
	if len(cold) < 2 {
		return
	}
	var next atomic.Int64
	simulate := func() {
		for i := int(next.Add(1) - 1); i < len(cold); i = int(next.Add(1) - 1) {
			// A failed simulation is not memoized: the cell's first run
			// meets the same error and the shard reports it.
			_ = xgene.SimulateCounters(benches[cold[i]])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(cold)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			simulate()
		}()
	}
	simulate()
	wg.Wait()
}
