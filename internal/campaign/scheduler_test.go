package campaign

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

// goldenSchedule is the adaptive search the golden tests compare against
// the exhaustive descent: paper resolution (5 mV), 40 mV coarse pass.
func goldenSchedule(t *testing.T, corner silicon.Corner, campaignSeed uint64, benches ...string) Schedule {
	t.Helper()
	probe, err := xgene.NewServer(xgene.Options{Corner: corner, Seed: campaignSeed})
	if err != nil {
		t.Fatal(err)
	}
	var profiles []workloads.Profile
	for _, b := range benches {
		profiles = append(profiles, mustProfile(t, b))
	}
	s := DefaultSchedule("golden/"+corner.String(), profiles, core.NominalSetup(probe.Chip().MostRobustCore()))
	s.Board = Board{Corner: corner}
	s.CoarseStepV = 0.040
	return s
}

// exhaustiveReference replays one adaptive result's search as the paper's
// uniform descent: same board, same search seed, StepV = the schedule's
// final resolution. Because every grid point is the same pure function of
// (seed, voltage, repetition) in both strategies, this is the ground truth
// the scheduler must match.
func exhaustiveReference(t *testing.T, s Schedule, corner silicon.Corner, res AdaptiveResult) core.VminResult {
	t.Helper()
	srv, err := xgene.NewServer(xgene.Options{Corner: corner, Seed: res.BoardSeed})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFramework(srv)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.VminSearch(core.VminConfig{
		Benchmark:   mustProfile(t, res.Benchmark),
		Setup:       s.Setup,
		FloorV:      s.FloorV,
		StepV:       s.ResolutionV,
		Repetitions: s.Repetitions,
		Seed:        res.SearchSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestAdaptiveGoldenEquivalence is the tentpole's acceptance test: per
// (benchmark, corner) the adaptive scheduler's SafeVmin must equal the
// exhaustive uniform-grid answer at the same final resolution, while
// executing strictly fewer runs, and its Planned count must equal the
// exhaustive sweep's executed run count exactly.
func TestAdaptiveGoldenEquivalence(t *testing.T) {
	for _, corner := range silicon.Corners() {
		corner := corner
		t.Run(corner.String(), func(t *testing.T) {
			s := goldenSchedule(t, corner, 7, "mcf", "cactusADM")
			rep, err := RunSchedule(Config{Workers: 4, Seed: 7}, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != len(s.Benches) {
				t.Fatalf("got %d results, want %d", len(rep.Results), len(s.Benches))
			}
			for _, res := range rep.Results {
				want := exhaustiveReference(t, s, corner, res)
				if !res.Converged {
					t.Errorf("%s: unbudgeted search did not converge", res.Benchmark)
				}
				if res.SafeVminV != want.SafeVminV {
					t.Errorf("%s: adaptive SafeVmin %v, exhaustive %v", res.Benchmark, res.SafeVminV, want.SafeVminV)
				}
				if res.FirstFailV != want.FirstFailV {
					t.Errorf("%s: adaptive FirstFail %v, exhaustive %v", res.Benchmark, res.FirstFailV, want.FirstFailV)
				}
				if res.Planned != len(want.Records) {
					t.Errorf("%s: planned %d runs, exhaustive executed %d", res.Benchmark, res.Planned, len(want.Records))
				}
				if res.Runs >= len(want.Records) {
					t.Errorf("%s: adaptive executed %d runs, exhaustive only %d — no savings", res.Benchmark, res.Runs, len(want.Records))
				}
			}
		})
	}
}

// TestAdaptiveRunSavings pins the adaptive scheduler's saving in runs on
// four SPEC profiles of the TTT chip's most robust core at paper
// parameters (10 reps/level, 5 mV resolution, 40 mV coarse stride),
// campaign seed 1: an exhaustive 5 mV descent per benchmark, run as engine
// shards, executes 965 runs; the adaptive scheduler plans 972 and executes
// 252, 3.8x fewer, and both reach the same SafeVmin per benchmark. The
// exhaustive shards draw their search seeds from their own shard names, so
// their count differs slightly from the 972 a same-seed descent runs
// (TestAdaptiveGoldenEquivalence pins that equality).
func TestAdaptiveRunSavings(t *testing.T) {
	const seed = 1
	probe, err := xgene.NewServer(xgene.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSchedule("bench-adaptive", workloads.SPEC2006()[:4],
		core.NominalSetup(probe.Chip().MostRobustCore()))

	var shards []Shard[core.VminResult]
	for bi, bench := range s.Benches {
		bi := bi
		shards = append(shards, Shard[core.VminResult]{
			Name:  s.Name + "/exh/" + bench.Name,
			Board: s.Board,
			Run: func(ctx *Ctx) (core.VminResult, error) {
				return ctx.Framework.VminSearch(core.VminConfig{
					Benchmark:   s.Benches[bi],
					Setup:       s.Setup,
					FloorV:      s.FloorV,
					StepV:       s.ResolutionV,
					Repetitions: s.Repetitions,
					Seed:        ctx.Seed,
				})
			},
		})
	}
	exh, err := Run(Config{Seed: seed}, shards)
	if err != nil {
		t.Fatal(err)
	}
	adp, err := RunSchedule(Config{Seed: seed}, s)
	if err != nil {
		t.Fatal(err)
	}
	if exh.Stats.Runs != 965 || adp.Stats.Runs != 252 || adp.Stats.Planned != 972 {
		t.Errorf("runs: exhaustive %d, adaptive %d of %d planned; want 965, 252 of 972",
			exh.Stats.Runs, adp.Stats.Runs, adp.Stats.Planned)
	}
	if len(exh.Results) != len(s.Benches) || len(adp.Results) != len(s.Benches) {
		t.Fatalf("results: exhaustive %d, adaptive %d; want %d each",
			len(exh.Results), len(adp.Results), len(s.Benches))
	}
	for i, want := range exh.Results {
		if got := adp.Results[i]; got.SafeVminV != want.Value.SafeVminV {
			t.Errorf("%s: adaptive SafeVmin %v, exhaustive %v", got.Benchmark, got.SafeVminV, want.Value.SafeVminV)
		}
	}
}

// TestAdaptiveDeterministicAcrossWorkerCounts pins the scheduler to the
// engine's determinism contract at workers 1/4/16 (run under -race in CI),
// with a multi-board fleet so board batching is part of what's pinned.
func TestAdaptiveDeterministicAcrossWorkerCounts(t *testing.T) {
	s := goldenSchedule(t, silicon.TTT, 7, "mcf", "cactusADM")
	s.Boards = 2
	s.Repetitions = 4
	base, err := RunSchedule(Config{Workers: 1, Seed: 7}, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		rep, err := RunSchedule(Config{Workers: workers, Seed: 7}, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Results, rep.Results) {
			t.Errorf("results differ between 1 and %d workers", workers)
		}
		if !reflect.DeepEqual(base.Records, rep.Records) {
			t.Errorf("records differ between 1 and %d workers", workers)
		}
		if !reflect.DeepEqual(base.Stats, rep.Stats) {
			t.Errorf("stats differ between 1 and %d workers: %+v vs %+v", workers, base.Stats, rep.Stats)
		}
	}
}

// TestAdaptiveStreamMatchesBatch extends the live-stream byte-identity
// contract to the adaptive scheduler: what a sink sees equals the report's
// record sequence at every worker count.
func TestAdaptiveStreamMatchesBatch(t *testing.T) {
	s := goldenSchedule(t, silicon.TTT, 9, "mcf", "cactusADM")
	s.Boards = 2
	s.Repetitions = 4
	for _, workers := range []int{1, 4, 16} {
		sink := &collectSink{}
		rep, err := RunSchedule(Config{Workers: workers, Seed: 9, Sink: sink}, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sink.records(), rep.Records) {
			t.Errorf("workers=%d: streamed records differ from the schedule report", workers)
		}
	}
}

// TestAdaptivePlannedAccounting is the satellite regression for
// planned-vs-executed bookkeeping: skipped grid points must not surface
// anywhere in the outcome counts (in particular not as failures), and the
// aggregate must expose exactly how much work the scheduler avoided.
func TestAdaptivePlannedAccounting(t *testing.T) {
	s := goldenSchedule(t, silicon.TTT, 7, "mcf")
	rep, err := RunSchedule(Config{Workers: 2, Seed: 7}, s)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.Planned <= st.Runs {
		t.Fatalf("adaptive campaign planned %d <= executed %d; scheduler skipped nothing", st.Planned, st.Runs)
	}
	if st.Skipped() != st.Planned-st.Runs {
		t.Errorf("Skipped() = %d, want %d", st.Skipped(), st.Planned-st.Runs)
	}
	outcomes := 0
	for _, n := range st.Outcomes {
		outcomes += n
	}
	if outcomes != st.Runs {
		t.Errorf("outcome counts sum to %d, want executed runs %d — skipped points leaked into outcomes", outcomes, st.Runs)
	}
	if len(rep.Records) != st.Runs {
		t.Errorf("%d records for %d executed runs", len(rep.Records), st.Runs)
	}
	// Exhaustive grids plan exactly what they execute.
	g := Grid{
		Name:        "exhaustive-accounting",
		Benches:     []workloads.Profile{mustProfile(t, "mcf")},
		Setups:      []core.Setup{core.NominalSetup(silicon.CoreID{})},
		Repetitions: 3,
	}
	grep, err := RunGrid(Config{Workers: 2, Seed: 7}, g)
	if err != nil {
		t.Fatal(err)
	}
	if grep.Stats.Planned != grep.Stats.Runs || grep.Stats.Skipped() != 0 {
		t.Errorf("exhaustive grid planned %d / ran %d, want equal", grep.Stats.Planned, grep.Stats.Runs)
	}
}

// TestAdaptiveBudget pins the run-budget escape hatch: the search stops at
// MaxRuns, reports Converged=false, and still returns a verified-safe level.
func TestAdaptiveBudget(t *testing.T) {
	s := goldenSchedule(t, silicon.TTT, 7, "mcf")
	s.Repetitions = 4
	s.MaxRuns = 9 // enough for two coarse levels and change, not for convergence
	rep, err := RunSchedule(Config{Workers: 1, Seed: 7}, s)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Converged {
		t.Error("budgeted search reported convergence")
	}
	if res.Runs > s.MaxRuns {
		t.Errorf("executed %d runs over budget %d", res.Runs, s.MaxRuns)
	}
	if res.SafeVminV <= 0 {
		t.Errorf("budgeted search lost its best-so-far level: %v", res.SafeVminV)
	}

	// A budget too small to finish even the first level must NOT report the
	// unverified start voltage as safe: SafeVminV 0 says "nothing proven".
	s.MaxRuns = 2 // < Repetitions, so level 0 can never be verified
	rep, err = RunSchedule(Config{Workers: 1, Seed: 7}, s)
	if err != nil {
		t.Fatal(err)
	}
	res = rep.Results[0]
	if res.Converged {
		t.Error("starved search reported convergence")
	}
	if res.SafeVminV != 0 || res.GuardbandV != 0 {
		t.Errorf("starved search claims SafeVmin %v / guardband %v with no verified level", res.SafeVminV, res.GuardbandV)
	}
	// The exhaustive cost of a budget-stopped search is unknowable, so no
	// savings may be claimed: Planned == Runs, Skipped == 0.
	if res.Planned != res.Runs {
		t.Errorf("budget-stopped search claims planned %d vs %d runs — savings are unknowable", res.Planned, res.Runs)
	}
}

// TestAdaptivePlannedNotClamped guards the honesty of the accounting: when
// the refinement costs more than the exhaustive descent would have, Planned
// must still report the exhaustive cost (negative Skipped), not be dressed
// up as break-even.
func TestAdaptivePlannedNotClamped(t *testing.T) {
	s := goldenSchedule(t, silicon.TTT, 7, "mcf")
	rep, err := RunSchedule(Config{Workers: 1, Seed: 7}, s)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	// Independently recompute the exhaustive cost and demand exact
	// agreement — clamping to Runs would break this whenever Runs exceeds
	// the true exhaustive count.
	want := exhaustiveReference(t, s, silicon.TTT, res)
	if res.Planned != len(want.Records) {
		t.Errorf("Planned %d, exhaustive executed %d — accounting not faithful", res.Planned, len(want.Records))
	}
}

// TestFleetBoardsAreDistinctChips checks the multi-board contract: fleet
// boards derive distinct seeds (board 0 keeping the base seed), fabricate
// distinct silicon, and their searches produce distinct records.
func TestFleetBoardsAreDistinctChips(t *testing.T) {
	if FleetBoardSeed(7, 0) != 7 {
		t.Error("fleet board 0 must keep the base seed")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		seed := FleetBoardSeed(7, i)
		if seen[seed] {
			t.Fatalf("fleet board %d repeats a sibling's seed", i)
		}
		seen[seed] = true
		if got := FleetBoardSeed(7, i); got != seed {
			t.Fatalf("FleetBoardSeed not pure at board %d", i)
		}
	}

	s := goldenSchedule(t, silicon.TTT, 7, "mcf")
	s.Boards = 3
	s.Repetitions = 4
	rep, err := RunSchedule(Config{Workers: 2, Seed: 7}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results, want 3 boards", len(rep.Results))
	}
	for i, res := range rep.Results {
		if res.Board != i {
			t.Errorf("result %d claims board %d", i, res.Board)
		}
		if res.BoardSeed != FleetBoardSeed(7, i) {
			t.Errorf("board %d seed %d, want %d", i, res.BoardSeed, FleetBoardSeed(7, i))
		}
		// Every board's answer still matches its own exhaustive descent.
		want := exhaustiveReference(t, s, silicon.TTT, res)
		if res.SafeVminV != want.SafeVminV {
			t.Errorf("board %d: adaptive SafeVmin %v, exhaustive %v", i, res.SafeVminV, want.SafeVminV)
		}
	}
	// Distinct chips of the same corner should not share an identical
	// record stream (different silicon, different droops).
	if reflect.DeepEqual(rep.Results[0], rep.Results[1]) && reflect.DeepEqual(rep.Results[1], rep.Results[2]) {
		t.Error("all fleet boards produced identical results; seeds not reaching fabrication")
	}
}

// TestCrossSeedGoldenEquivalence is the cross-benchmark seeding satellite's
// guard: seeding a board's coarse pass from its sibling's found Vmin must
// change the visiting order only — SafeVmin, FirstFail and the exhaustive
// reference all stay exactly as in the un-seeded search, per corner, while
// boards beyond the first execute no more runs than before.
func TestCrossSeedGoldenEquivalence(t *testing.T) {
	for _, corner := range silicon.Corners() {
		corner := corner
		t.Run(corner.String(), func(t *testing.T) {
			s := goldenSchedule(t, corner, 7, "mcf", "cactusADM")
			s.Boards = 3
			s.Repetitions = 4
			plain, err := RunSchedule(Config{Workers: 4, Seed: 7}, s)
			if err != nil {
				t.Fatal(err)
			}
			s.CrossSeed = true
			seeded, err := RunSchedule(Config{Workers: 4, Seed: 7}, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(seeded.Results) != len(plain.Results) {
				t.Fatalf("result counts differ: %d vs %d", len(seeded.Results), len(plain.Results))
			}
			savedTotal := 0
			for i, got := range seeded.Results {
				want := plain.Results[i]
				if got.SafeVminV != want.SafeVminV || got.FirstFailV != want.FirstFailV {
					t.Errorf("%s board %d: seeded SafeVmin %v / fail %v, plain %v / %v",
						got.Benchmark, got.Board, got.SafeVminV, got.FirstFailV,
						want.SafeVminV, want.FirstFailV)
				}
				// Board 0 has no sibling: its search must be untouched.
				if got.Board == 0 && got.Runs != want.Runs {
					t.Errorf("%s board 0 executed %d runs with cross-seed, %d without — board 0 must not change",
						got.Benchmark, got.Runs, want.Runs)
				}
				if got.Board > 0 {
					savedTotal += want.Runs - got.Runs
				}
				// The answer also still matches the exhaustive reference.
				ref := exhaustiveReference(t, s, corner, got)
				if got.SafeVminV != ref.SafeVminV {
					t.Errorf("%s board %d: seeded SafeVmin %v, exhaustive %v",
						got.Benchmark, got.Board, got.SafeVminV, ref.SafeVminV)
				}
			}
			// Same-corner chips have nearby Vmins: across the fleet the
			// seeded coarse passes must prune runs overall.
			if savedTotal <= 0 {
				t.Errorf("cross-seeding saved %d runs across sibling boards, want > 0", savedTotal)
			}
		})
	}
}

// TestCrossSeedDeterministicAcrossWorkerCounts extends the determinism
// contract to the hint chain: the sibling hints flow through the
// sequential board loop inside each shard, so worker count still cannot
// move a single record.
func TestCrossSeedDeterministicAcrossWorkerCounts(t *testing.T) {
	s := goldenSchedule(t, silicon.TTT, 11, "mcf", "cactusADM")
	s.Boards = 3
	s.Repetitions = 4
	s.CrossSeed = true
	base, err := RunSchedule(Config{Workers: 1, Seed: 11}, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		rep, err := RunSchedule(Config{Workers: workers, Seed: 11}, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Results, rep.Results) {
			t.Errorf("cross-seeded results differ between 1 and %d workers", workers)
		}
		if !reflect.DeepEqual(base.Records, rep.Records) {
			t.Errorf("cross-seeded records differ between 1 and %d workers", workers)
		}
	}
}

// TestGridFleetDeterminism extends RunGrid's worker-count independence to
// multi-board cells.
func TestGridFleetDeterminism(t *testing.T) {
	g := recoveryGrid(t)
	g.Boards = 3
	base, err := RunGrid(Config{Workers: 1, Seed: 7}, g)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunGrid(Config{Workers: 1, Seed: 7}, recoveryGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Records) != 3*len(single.Records) {
		t.Fatalf("fleet grid produced %d records, want 3x the single-board %d", len(base.Records), len(single.Records))
	}
	for _, workers := range []int{4, 16} {
		rep, err := RunGrid(Config{Workers: workers, Seed: 7}, g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Records, rep.Records) {
			t.Errorf("fleet grid records differ between 1 and %d workers", workers)
		}
	}
}

// TestScheduleValidate covers the schedule's construction errors.
func TestScheduleValidate(t *testing.T) {
	ok := goldenSchedule(t, silicon.TTT, 7, "mcf")
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := map[string]func(*Schedule){
		"no name":       func(s *Schedule) { s.Name = "" },
		"no benches":    func(s *Schedule) { s.Benches = nil },
		"zero res":      func(s *Schedule) { s.ResolutionV = 0 },
		"coarse<res":    func(s *Schedule) { s.CoarseStepV = s.ResolutionV / 2 },
		"not multiple":  func(s *Schedule) { s.CoarseStepV = 0.007 },
		"floor high":    func(s *Schedule) { s.FloorV = 2.0 },
		"floor zero":    func(s *Schedule) { s.FloorV = 0 },
		"zero reps":     func(s *Schedule) { s.Repetitions = 0 },
		"neg boards":    func(s *Schedule) { s.Boards = -1 },
		"neg budget":    func(s *Schedule) { s.MaxRuns = -1 },
		"broken setup":  func(s *Schedule) { s.Setup.PMDVoltage = 0; s.FloorV = -1 },
		"no setup core": func(s *Schedule) { s.Setup.Cores = nil },
	}
	for name, mutate := range cases {
		s := ok
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid schedule accepted", name)
		}
	}
	if _, err := RunSchedule(Config{Seed: 0}, ok); err == nil {
		t.Error("zero campaign seed accepted")
	}
	bad := ok
	bad.Repetitions = 0
	if _, err := RunSchedule(Config{Seed: 1}, bad); err == nil {
		t.Error("invalid schedule accepted by RunSchedule")
	}
}
