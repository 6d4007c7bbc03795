// Adaptive Vmin-refining grid scheduler.
//
// The paper's offline characterization walks a uniform voltage grid: descend
// from nominal in fixed steps, run every benchmark N times per step, stop at
// the first disruption. Almost all of that budget is spent far above Vmin,
// where every run completes cleanly. The adaptive scheduler here keeps the
// answer and discards the waste: a coarse pass brackets the failure
// transition, then bisection densifies the grid inside the bracket until the
// final resolution (or a run budget) is reached.
//
// Equivalence contract: every grid point is evaluated as exactly the same
// pure function of (search seed, voltage, repetition) that core.VminSearch
// uses (core.VminRunSeed), on the same accumulated voltage levels. Whenever
// the level-clean predicate is monotone across the refinement bracket — the
// physical expectation, and what the golden tests pin per corner — the
// adaptive SafeVmin equals the exhaustive descent's answer at the same
// resolution while executing O(start-Vmin / coarse + log(coarse/resolution))
// levels instead of every one.
package campaign

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// Schedule describes an adaptive Vmin characterization: each benchmark (on
// each fleet board) gets a coarse-to-fine descent from the setup voltage
// toward the floor.
type Schedule struct {
	// Name labels the schedule; it prefixes shard names and therefore keys
	// the derived search seeds.
	Name string
	// Board is the simulated server every benchmark characterizes; with
	// Boards > 1 it is board 0 of the fleet.
	Board Board
	// Boards is the fleet size per benchmark shard (0/1 = single board).
	// Fleet boards are distinct chips from FleetBoardSeed-derived seeds.
	Boards int
	// Benches are the workloads to characterize; one shard each.
	Benches []workloads.Profile
	// Setup is the base operating point. Its PMDVoltage is the descent
	// start (usually nominal), exactly as in core.VminConfig.
	Setup core.Setup
	// FloorV stops the descent.
	FloorV float64
	// CoarseStepV is the coarse-pass step; it must be a positive integer
	// multiple of ResolutionV.
	CoarseStepV float64
	// ResolutionV is the final grid resolution — the exhaustive sweep this
	// schedule replaces is core.VminSearch with StepV = ResolutionV.
	ResolutionV float64
	// Repetitions per voltage level (the paper runs ten).
	Repetitions int
	// MaxRuns, when positive, bounds the executed runs per (benchmark,
	// board) search. A search that exhausts the budget reports its best
	// bracket with Converged = false.
	MaxRuns int
	// CrossSeed, when true, seeds each fleet board's coarse pass from the
	// previous sibling board's already-found Vmin for the same benchmark:
	// instead of descending from the start voltage, the search probes the
	// sibling's answer first and strides away from it (down while clean,
	// up while failing). Same-corner chips have nearby Vmins, so most of
	// the coarse descent is skipped. Only the visiting order changes —
	// every level is still the same pure function of (search seed,
	// voltage, repetition) — so whenever the level-clean predicate is
	// monotone across the explored range (the physical expectation, pinned
	// by the golden tests) the SafeVmin is identical to the un-seeded
	// search. Board 0 always descends from the top; single-board
	// schedules are unaffected.
	CrossSeed bool
}

// DefaultSchedule returns the paper's characterization parameters (5 mV
// final resolution, 40 mV coarse pass, ten repetitions, 0.70 V floor) for a
// set of benchmarks on a base setup.
func DefaultSchedule(name string, benches []workloads.Profile, setup core.Setup) Schedule {
	return Schedule{
		Name:        name,
		Benches:     benches,
		Setup:       setup,
		FloorV:      0.70,
		CoarseStepV: 0.040,
		ResolutionV: 0.005,
		Repetitions: 10,
	}
}

// Validate reports schedule construction errors.
func (s Schedule) Validate() error {
	if s.Name == "" {
		return errors.New("campaign: schedule needs a name")
	}
	if len(s.Benches) == 0 {
		return errors.New("campaign: schedule needs benchmarks")
	}
	if err := s.Setup.Validate(); err != nil {
		return err
	}
	if s.ResolutionV <= 0 {
		return errors.New("campaign: schedule resolution must be positive")
	}
	if s.CoarseStepV < s.ResolutionV {
		return errors.New("campaign: coarse step must be at least the resolution")
	}
	if m := int(s.CoarseStepV/s.ResolutionV + 0.5); !nearlyEqual(float64(m)*s.ResolutionV, s.CoarseStepV) {
		return fmt.Errorf("campaign: coarse step %v is not an integer multiple of resolution %v", s.CoarseStepV, s.ResolutionV)
	}
	if s.FloorV <= 0 || s.FloorV >= s.Setup.PMDVoltage {
		return errors.New("campaign: floor must sit below the start voltage")
	}
	if s.Repetitions <= 0 {
		return errors.New("campaign: schedule repetitions must be positive")
	}
	if s.Boards < 0 {
		return errors.New("campaign: schedule boards must be non-negative")
	}
	if s.MaxRuns < 0 {
		return errors.New("campaign: schedule run budget must be non-negative")
	}
	return nil
}

// nearlyEqual absorbs float drift on the millivolt grid.
func nearlyEqual(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

// AdaptiveResult is one (benchmark, board) search outcome.
type AdaptiveResult struct {
	Benchmark string
	// Board is the fleet board index; BoardSeed its fabrication seed.
	Board     int
	BoardSeed uint64
	// SearchSeed is the derived seed every grid point's runs key off
	// (core.VminRunSeed) — reproduce the search offline with
	// core.VminSearch{Seed: SearchSeed, StepV: ResolutionV} on the same
	// board.
	SearchSeed uint64
	// SafeVminV is the lowest all-clean voltage on the resolution grid;
	// FirstFailV the failing level that brackets it from below (0 when the
	// floor was reached without failures). GuardbandV is start - SafeVminV.
	SafeVminV  float64
	FirstFailV float64
	GuardbandV float64
	// Runs counts executed runs; Planned the runs the exhaustive descent at
	// ResolutionV would have executed. Skipped levels executed nothing and
	// appear in no outcome count.
	Runs    int
	Planned int
	// Converged is false when MaxRuns stopped the search before the bracket
	// reached ResolutionV; SafeVminV then holds the best verified safe
	// level so far, or 0 when the budget ran out before any level was
	// verified all-clean (never undervolt on an unconverged zero).
	Converged bool
}

// ScheduleReport aggregates a completed adaptive campaign.
type ScheduleReport struct {
	// Results holds every (benchmark, board) search, benchmark-major in
	// schedule order, board-minor.
	Results []AdaptiveResult
	// Records holds every executed run in deterministic order: benchmark,
	// then board, then search execution order (coarse descent, then
	// refinement) — the order any Config.Sink streams at any worker count.
	Records []core.RunRecord
	// Stats is the campaign aggregate; Stats.Planned - Stats.Runs is the
	// work the scheduler avoided versus the uniform grid.
	Stats Stats
	// Tally is the engine's measure of its own execution (see Tally).
	Tally Tally
	// Workers is the resolved worker count.
	Workers int
}

// errBudget stops a search when MaxRuns is exhausted.
var errBudget = errors.New("campaign: adaptive run budget exhausted")

// shardName is the schedule's deterministic shard name for benchmark bi.
func (s Schedule) shardName(bi int) string {
	return fmt.Sprintf("%s/b%d/%s", s.Name, bi, s.Benches[bi].Name)
}

// SearchSeed is the derived seed of the (benchmark bi, fleet board) search
// under a campaign seed — the seed RunSchedule hands core.VminRunSeed. It
// is exported so an exhaustive sweep can characterize the exact same
// searches (same per-level run variation) and be compared run for run;
// cmd/guardband-char uses it to make plain and -adaptive invocations
// answer-comparable.
func (s Schedule) SearchSeed(campaignSeed uint64, bi, board int) uint64 {
	return xrand.New(ShardSeed(campaignSeed, s.shardName(bi))).
		Split(fmt.Sprintf("adaptive/board/%d", board)).Uint64()
}

// RunSchedule executes an adaptive schedule across the worker pool: one
// shard per benchmark, each batching the schedule's fleet of boards. As
// with Run and RunGrid, a shard error or cancellation is returned alongside
// the report so partial results survive; only configuration errors yield a
// nil report.
func RunSchedule(cfg Config, s Schedule) (*ScheduleReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	boards := s.Boards
	if boards < 1 {
		boards = 1
	}
	var shards []Shard[[]AdaptiveResult]
	for bi, bench := range s.Benches {
		bi := bi
		shards = append(shards, Shard[[]AdaptiveResult]{
			Name:   s.shardName(bi),
			Board:  s.Board,
			Boards: boards,
			Run: func(ctx *Ctx) ([]AdaptiveResult, error) {
				out := make([]AdaptiveResult, 0, boards)
				// hintV carries the last sibling's verified Vmin forward
				// through the board loop. Boards run sequentially within
				// the shard, so the hint chain is a pure function of the
				// schedule — worker count still cannot change results.
				hintV := 0.0
				for b := 0; b < boards; b++ {
					_, fw, err := ctx.FleetBoard(b)
					if err != nil {
						return out, err
					}
					seed := s.SearchSeed(ctx.CampaignSeed, bi, b)
					res, err := adaptiveSearch(fw, bench, s, seed, hintV)
					if err != nil {
						return out, err
					}
					res.Board = b
					res.BoardSeed = FleetBoardSeed(ctx.baseSeed, b)
					ctx.AddPlanned(res.Planned)
					out = append(out, res)
					if s.CrossSeed && res.Converged && res.SafeVminV > 0 {
						hintV = res.SafeVminV
					}
				}
				return out, nil
			},
		})
	}
	rep, err := Run(cfg, shards)
	if rep == nil {
		return nil, err
	}
	out := &ScheduleReport{Stats: rep.Stats, Tally: rep.Tally, Workers: rep.Workers}
	for _, sh := range rep.Results {
		out.Results = append(out.Results, sh.Value...)
		out.Records = append(out.Records, sh.Records...)
	}
	return out, err
}

// search carries one (benchmark, board) descent's state.
type search struct {
	fw     *core.Framework
	bench  workloads.Profile
	s      Schedule
	seed   uint64
	levels []float64 // accumulated descent voltages, index = grid level
	// runsAt memoizes evaluated levels: executed run count, and whether
	// every repetition completed cleanly. A level is never run twice.
	runsAt map[int]int
	clean  map[int]bool
	runs   int
}

// evalLevel runs the benchmark at grid level k, stopping the level at its
// first failing repetition exactly as core.VminSearch does. errBudget is
// returned when MaxRuns would be exceeded; the partially evaluated level
// stays unclassified.
func (sr *search) evalLevel(k int) (bool, error) {
	if clean, ok := sr.clean[k]; ok {
		return clean, nil
	}
	setup := sr.s.Setup
	setup.PMDVoltage = core.RoundMV(sr.levels[k])
	executed, failed := 0, false
	for rep := 0; rep < sr.s.Repetitions; rep++ {
		if sr.s.MaxRuns > 0 && sr.runs >= sr.s.MaxRuns {
			return false, errBudget
		}
		rec, err := sr.fw.ExecuteRun(sr.bench, setup, rep, core.VminRunSeed(sr.seed, sr.levels[k], rep))
		if err != nil {
			return false, fmt.Errorf("campaign: adaptive search at %v: %w", setup.PMDVoltage, err)
		}
		sr.runs++
		executed++
		if rec.Outcome.IsFailure() {
			failed = true
			break
		}
	}
	sr.runsAt[k] = executed
	sr.clean[k] = !failed
	return !failed, nil
}

// probe evaluates one grid level and folds it into the bracket: clean
// levels raise safeK, failing ones set failK. budgetStop reports MaxRuns
// exhaustion (the level stays unclassified).
func (sr *search) probe(k int, safeK, failK *int) (budgetStop bool, err error) {
	clean, err := sr.evalLevel(k)
	if errors.Is(err, errBudget) {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	if clean {
		*safeK = k
	} else {
		*failK = k
	}
	return false, nil
}

// scanStride probes every dk-th level from start while inside [0, K],
// stopping once the bracket closes in the direction of travel: a failure
// while descending (dk > 0), a clean level while ascending (dk < 0).
func (sr *search) scanStride(start, dk, K int, safeK, failK *int) (budgetStop bool, err error) {
	for k := start; k >= 0 && k <= K; k += dk {
		stop, err := sr.probe(k, safeK, failK)
		if stop || err != nil {
			return stop, err
		}
		if dk > 0 && *failK == k {
			return false, nil
		}
		if dk < 0 && *safeK == k {
			return false, nil
		}
	}
	return false, nil
}

// adaptiveSearch runs the coarse-bracket-bisect flow for one benchmark on
// one board's framework. A positive hintV (Schedule.CrossSeed: a sibling
// board's verified Vmin) replaces the top-down coarse pass with a probe at
// the hint's grid level plus coarse strides away from it; hintV == 0 is
// the classic descent.
func adaptiveSearch(fw *core.Framework, bench workloads.Profile, s Schedule, seed uint64, hintV float64) (AdaptiveResult, error) {
	// Replicate core.VminSearch's descent accumulation exactly, so level k
	// here is the voltage the exhaustive sweep visits at step k.
	var levels []float64
	for v := s.Setup.PMDVoltage; v >= s.FloorV-1e-9; v -= s.ResolutionV {
		levels = append(levels, v)
	}
	sr := &search{
		fw: fw, bench: bench, s: s, seed: seed,
		levels: levels,
		runsAt: make(map[int]int),
		clean:  make(map[int]bool),
	}
	res := AdaptiveResult{
		Benchmark:  bench.Name,
		SearchSeed: seed,
		SafeVminV:  s.Setup.PMDVoltage,
		Converged:  true,
	}
	K := len(levels) - 1
	m := int(s.CoarseStepV/s.ResolutionV + 0.5)

	// Map the sibling hint onto the level grid; out-of-grid hints (a
	// sibling Vmin above this search's start) fall back to the descent.
	hintK := -1
	if hintV > 0 {
		if k := int((s.Setup.PMDVoltage-hintV)/s.ResolutionV + 0.5); k >= 0 && k <= K {
			hintK = k
		}
	}

	safeK, failK := -1, -1
	budgetStop := false
	if hintK >= 0 {
		// Seeded coarse pass: probe the sibling's answer, then stride
		// away from it — down while clean, up while failing. Under the
		// monotone predicate this lands on the same (safe, fail) bracket
		// as the top-down pass while skipping the descent above the hint.
		stop, err := sr.probe(hintK, &safeK, &failK)
		if err != nil {
			return res, err
		}
		budgetStop = stop
		switch {
		case budgetStop:
		case safeK == hintK:
			budgetStop, err = sr.scanStride(hintK+m, m, K, &safeK, &failK)
		default:
			budgetStop, err = sr.scanStride(hintK-m, -m, K, &safeK, &failK)
			// The stride up may overshoot the start level; the top of the
			// grid bounds the bracket exactly as it bounds the descent.
			if err == nil && !budgetStop && safeK == -1 && failK > 0 {
				budgetStop, err = sr.probe(0, &safeK, &failK)
			}
		}
		if err != nil {
			return res, err
		}
	} else {
		// Coarse pass: every m-th level from the start.
		var err error
		budgetStop, err = sr.scanStride(0, m, K, &safeK, &failK)
		if err != nil {
			return res, err
		}
	}
	// The floor level belongs to the grid even when the coarse stride
	// overshoots it; the exhaustive descent always visits it.
	if !budgetStop && failK == -1 && safeK != K {
		stop, err := sr.probe(K, &safeK, &failK)
		if err != nil {
			return res, err
		}
		budgetStop = stop
	}

	// Refine: bisect the bracket (safeK, failK) down to adjacent levels.
	for !budgetStop && failK > 0 && failK-safeK > 1 {
		mid := (safeK + failK) / 2
		clean, err := sr.evalLevel(mid)
		if errors.Is(err, errBudget) {
			budgetStop = true
			break
		}
		if err != nil {
			return res, err
		}
		if clean {
			safeK = mid
		} else {
			failK = mid
		}
	}

	res.Runs = sr.runs
	res.Converged = !budgetStop
	switch {
	case safeK >= 0:
		res.SafeVminV = core.RoundMV(levels[safeK])
	case budgetStop:
		// The budget ran out before any level was verified all-clean:
		// there is no safe level to report. Zero keeps the "lowest
		// all-clean voltage" contract honest — callers must not undervolt
		// on an unverified start voltage. (A converged search that fails
		// at the start keeps the exhaustive convention of SafeVminV ==
		// start, matching core.VminSearch.)
		res.SafeVminV = 0
	}
	if failK >= 0 {
		res.FirstFailV = core.RoundMV(levels[failK])
	}
	if res.SafeVminV > 0 {
		res.GuardbandV = core.RoundMV(s.Setup.PMDVoltage - res.SafeVminV)
	}
	// Planned is the exhaustive descent's cost on the same grid: full
	// repetitions at every level above the failure, plus the failing
	// level's early-stopped repetitions. Without a failure the sweep runs
	// the whole grid.
	// Planned is the exhaustive descent's cost, reported honestly:
	//   - converged with a failure: exact (full reps above the failing
	//     level, early-stopped reps at it). No clamping — when the bracket
	//     sits right under the start voltage the bisection's
	//     partial-failure levels can cost MORE than the descent, and
	//     Skipped goes negative rather than dressing it up as "0% saved";
	//   - converged clean to the floor: the whole grid;
	//   - budget-stopped: the exhaustive cost is unknowable (the descent's
	//     stopping point was never found), so Planned = Runs claims no
	//     savings instead of inflating them with the full-grid cost.
	switch {
	case budgetStop:
		res.Planned = res.Runs
	case failK >= 0:
		res.Planned = failK*s.Repetitions + sr.runsAt[failK]
	default:
		res.Planned = (K + 1) * s.Repetitions
	}
	return res, nil
}
