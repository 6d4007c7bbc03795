package campaign

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

func mustProfile(t *testing.T, name string) workloads.Profile {
	t.Helper()
	p, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunValidation(t *testing.T) {
	if _, err := Run[int](Config{Seed: 1}, nil); err == nil {
		t.Error("empty campaign accepted")
	}
	ok := func(ctx *Ctx) (int, error) { return 0, nil }
	if _, err := Run(Config{Seed: 1}, []Shard[int]{{Name: "", Run: ok}}); err == nil {
		t.Error("empty shard name accepted")
	}
	if _, err := Run(Config{Seed: 1}, []Shard[int]{{Name: "a"}}); err == nil {
		t.Error("nil Run accepted")
	}
	if _, err := Run(Config{Seed: 1}, []Shard[int]{{Name: "a", Run: ok}, {Name: "a", Run: ok}}); err == nil {
		t.Error("duplicate shard names accepted")
	}
}

// TestConfigValidate pins the zero-seed rule: Board.Seed 0 means "inherit
// the campaign seed", so a zero campaign seed is rejected everywhere a
// Config enters the engine.
func TestConfigValidate(t *testing.T) {
	if err := (Config{Seed: 1}).Validate(); err != nil {
		t.Errorf("nonzero seed rejected: %v", err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero campaign seed accepted")
	}
	ok := func(ctx *Ctx) (int, error) { return 0, nil }
	if _, err := Run(Config{}, []Shard[int]{{Name: "a", Run: ok}}); err == nil {
		t.Error("Run accepted a zero campaign seed")
	}
	g := Grid{
		Name:        "zero-seed",
		Benches:     []workloads.Profile{mustProfile(t, "mcf")},
		Setups:      []core.Setup{core.NominalSetup(silicon.CoreID{})},
		Repetitions: 1,
	}
	if _, err := RunGrid(Config{}, g); err == nil {
		t.Error("RunGrid accepted a zero campaign seed")
	}
}

func TestShardSeedContract(t *testing.T) {
	a := ShardSeed(1, "x")
	if a != ShardSeed(1, "x") {
		t.Error("ShardSeed is not a pure function")
	}
	if a == ShardSeed(1, "y") {
		t.Error("distinct names share a seed")
	}
	if a == ShardSeed(2, "x") {
		t.Error("distinct campaign seeds share a shard seed")
	}
}

func TestResultOrderingAndValues(t *testing.T) {
	var shards []Shard[int]
	for i := 0; i < 12; i++ {
		i := i
		shards = append(shards, Shard[int]{
			Name: strings.Repeat("s", i+1),
			Run:  func(ctx *Ctx) (int, error) { return i * i, nil },
		})
	}
	rep, err := Run(Config{Workers: 4, Seed: 1}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 4 {
		t.Errorf("workers = %d, want 4", rep.Workers)
	}
	for i, v := range rep.Values() {
		if v != i*i {
			t.Errorf("value[%d] = %d, want %d (submission order broken)", i, v, i*i)
		}
	}
	if rep.Stats.Shards != 12 {
		t.Errorf("stats shards = %d", rep.Stats.Shards)
	}
}

func TestWorkerCapAndDefault(t *testing.T) {
	rep, err := Run(Config{Workers: 64, Seed: 1}, []Shard[int]{
		{Name: "only", Run: func(ctx *Ctx) (int, error) { return 1, nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 1 {
		t.Errorf("worker count not capped at shard count: %d", rep.Workers)
	}
	if rep, err = Run(Config{Seed: 1}, []Shard[int]{
		{Name: "only", Run: func(ctx *Ctx) (int, error) { return 1, nil }},
	}); err != nil {
		t.Fatal(err)
	} else if rep.Workers < 1 {
		t.Errorf("default worker count %d", rep.Workers)
	}
}

func TestErrorPolicy(t *testing.T) {
	boom := errors.New("boom")
	shards := []Shard[int]{
		{Name: "ok0", Run: func(ctx *Ctx) (int, error) { return 7, nil }},
		{Name: "bad1", Run: func(ctx *Ctx) (int, error) { return 0, boom }},
		{Name: "ok2", Run: func(ctx *Ctx) (int, error) { return 9, nil }},
		{Name: "bad3", Run: func(ctx *Ctx) (int, error) { return 0, errors.New("later") }},
	}
	rep, err := Run(Config{Workers: 2, Seed: 1}, shards)
	if err == nil {
		t.Fatal("campaign error not surfaced")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error %v is not the lowest-indexed shard error", err)
	}
	if !strings.Contains(err.Error(), "bad1") {
		t.Errorf("error %v does not name the failing shard", err)
	}
	// Healthy shards still report their values and bookkeeping.
	if rep == nil || rep.Results[2].Value != 9 || rep.Results[2].Err != nil {
		t.Error("healthy shard result lost on sibling failure")
	}
}

func TestCtxIdentityAndBoard(t *testing.T) {
	rep, err := Run(Config{Workers: 1, Seed: 42}, []Shard[string]{{
		Name:  "identity",
		Board: Board{Corner: silicon.TFF},
		Run: func(ctx *Ctx) (string, error) {
			if ctx.Name != "identity" || ctx.Index != 0 {
				t.Errorf("ctx identity %q/%d", ctx.Name, ctx.Index)
			}
			if ctx.CampaignSeed != 42 {
				t.Errorf("campaign seed %d", ctx.CampaignSeed)
			}
			if ctx.Seed != ShardSeed(42, "identity") {
				t.Error("shard seed does not follow the ShardSeed contract")
			}
			if ctx.Server == nil || ctx.Framework == nil {
				t.Fatal("ctx missing board or framework")
			}
			return ctx.Server.Chip().Corner.String(), nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Results[0].Value; got != "TFF" {
		t.Errorf("board corner %q, want TFF", got)
	}
}

// TestFreshBoard pins the Fresh contract: a shard that demands a pristine
// board must not see a sibling's boots or settings, even on one worker.
func TestFreshBoard(t *testing.T) {
	lowSetup := core.NominalSetup(silicon.CoreID{})
	lowSetup.PMDVoltage = 0.78 // deep undervolt: logic fails, board crashes
	bench := mustProfile(t, "mcf")
	shards := []Shard[int]{
		{
			Name: "crasher",
			Run: func(ctx *Ctx) (int, error) {
				rec, err := ctx.Framework.ExecuteRun(bench, lowSetup, 0, ctx.Seed)
				if err != nil {
					return 0, err
				}
				if !rec.Outcome.IsFailure() {
					t.Error("deep undervolt did not disrupt the run")
				}
				return ctx.Server.BootCount(), nil
			},
		},
		{
			Name:  "pristine",
			Board: Board{Fresh: true},
			Run: func(ctx *Ctx) (int, error) {
				return ctx.Server.BootCount(), nil
			},
		},
	}
	rep, err := Run(Config{Workers: 1, Seed: 1}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Value < 2 {
		t.Errorf("crasher shard boots = %d, want a recovery reboot", rep.Results[0].Value)
	}
	if rep.Results[1].Value != 1 {
		t.Errorf("fresh shard boots = %d, want pristine board", rep.Results[1].Value)
	}
	if rep.Stats.Recoveries == 0 {
		t.Error("campaign stats recorded no recovery")
	}
	if rep.Stats.SimTime == 0 {
		t.Error("campaign stats recorded no simulated time")
	}
	var failures int
	for o, n := range rep.Stats.Outcomes {
		if o != xgene.OutcomeOK {
			failures += n
		}
	}
	if failures == 0 {
		t.Error("campaign stats recorded no failing outcome")
	}
}

func TestGridValidation(t *testing.T) {
	bench := mustProfile(t, "mcf")
	setup := core.NominalSetup(silicon.CoreID{})
	cases := []Grid{
		{},
		{Name: "g", Setups: []core.Setup{setup}, Repetitions: 1},
		{Name: "g", Benches: []workloads.Profile{bench}, Repetitions: 1},
		{Name: "g", Benches: []workloads.Profile{bench}, Setups: []core.Setup{setup}},
	}
	for i, g := range cases {
		if _, err := RunGrid(Config{Seed: 1}, g); err == nil {
			t.Errorf("case %d: invalid grid accepted", i)
		}
	}
}

// TestRunGridPartialReportOnError mirrors Run's contract at the grid
// level: a failing cell surfaces as the campaign error, but the completed
// cells' records and bookkeeping come back with it.
func TestRunGridPartialReportOnError(t *testing.T) {
	nominal := core.NominalSetup(silicon.CoreID{})
	bad := nominal
	bad.PMDVoltage = -1 // fails setup application, producing no records
	g := Grid{
		Name:        "partial",
		Benches:     []workloads.Profile{mustProfile(t, "mcf")},
		Setups:      []core.Setup{nominal, bad},
		Repetitions: 2,
	}
	rep, err := RunGrid(Config{Workers: 2, Seed: 3}, g)
	if err == nil {
		t.Fatal("invalid setup did not fail the grid")
	}
	if rep == nil {
		t.Fatal("partial report lost on shard error")
	}
	if len(rep.Records) != 2 || rep.Stats.Runs != 2 {
		t.Errorf("partial report has %d records / %d runs, want 2 (the nominal cell)",
			len(rep.Records), rep.Stats.Runs)
	}
	if rep.Workers == 0 {
		t.Error("partial report lost the resolved worker count")
	}
}

func TestGridShape(t *testing.T) {
	benches := []workloads.Profile{mustProfile(t, "mcf"), mustProfile(t, "namd")}
	s1 := core.NominalSetup(silicon.CoreID{})
	s2 := s1
	s2.PMDVoltage = 0.95
	g := Grid{
		Name:        "shape",
		Benches:     benches,
		Setups:      []core.Setup{s1, s2},
		Repetitions: 3,
	}
	rep, err := RunGrid(Config{Workers: 2, Seed: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 3; len(rep.Records) != want {
		t.Fatalf("records = %d, want %d", len(rep.Records), want)
	}
	// Benchmark-major, then setup, then repetition — the serial Campaign
	// order.
	idx := 0
	for _, b := range benches {
		for _, s := range []core.Setup{s1, s2} {
			for rep2 := 0; rep2 < 3; rep2++ {
				r := rep.Records[idx]
				if r.Benchmark != b.Name || r.Setup.PMDVoltage != s.PMDVoltage || r.Repetition != rep2 {
					t.Fatalf("record %d out of grid order: %s %.3f rep %d",
						idx, r.Benchmark, r.Setup.PMDVoltage, r.Repetition)
				}
				idx++
			}
		}
	}
	if rep.Stats.Runs != 12 {
		t.Errorf("stats runs = %d", rep.Stats.Runs)
	}
	if n := len(core.Summarize(rep.Records)); n != 4 {
		t.Errorf("summaries = %d, want one per (bench, voltage)", n)
	}
}
