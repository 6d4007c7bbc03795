package guardband

import (
	"fmt"
	"sort"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/silicon"
	"repro/internal/viruses"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

// DefaultSeed is the fixed seed behind the published harness numbers in
// EXPERIMENTS.md; any other seed yields a different (but equally valid)
// board population.
const DefaultSeed uint64 = 1

// DefaultWorkers selects the fleet campaign engine's default parallelism
// (GOMAXPROCS). Every figure driver routes its grid through the engine;
// the worker count never changes the numbers, only the wall-clock, which
// the determinism regression tests pin down.
const DefaultWorkers = 0

// Fig4Entry is one bar of Fig. 4: a benchmark's safe Vmin on one chip's
// most robust core at 2.4 GHz.
type Fig4Entry struct {
	Chip      string
	Benchmark string
	VminMV    float64
	// GuardbandPct is the squared-voltage (dynamic power) headroom vs the
	// 980 mV nominal — the paper's ">=18.4%" framing.
	GuardbandPct float64
}

// Fig4Result aggregates the SPEC2006 undervolting campaign on all three
// corner chips.
type Fig4Result struct {
	Entries []Fig4Entry
}

// Fig4SpecVminWorkers reproduces Fig. 4: the full undervolting flow for
// the ten SPEC CPU2006 profiles on the TTT, TFF and TSS chips' most robust
// cores, repetitions runs per voltage step (the paper uses ten). The grid
// runs through the fleet campaign engine, one shard per (chip, benchmark)
// cell; results are byte-identical for every worker count at a fixed seed.
func Fig4SpecVminWorkers(seed uint64, repetitions, workers int) (Fig4Result, error) {
	var shards []campaign.Shard[Fig4Entry]
	for _, corner := range silicon.Corners() {
		for _, bench := range workloads.SPEC2006() {
			shards = append(shards, campaign.Shard[Fig4Entry]{
				Name:  fmt.Sprintf("fig4/%s/%s", corner, bench.Name),
				Board: campaign.Board{Corner: corner},
				Run: func(ctx *campaign.Ctx) (Fig4Entry, error) {
					robust := ctx.Server.Chip().MostRobustCore()
					cfg := core.DefaultVminConfig(bench, core.NominalSetup(robust))
					cfg.Repetitions = repetitions
					cfg.Seed = seed
					res, err := ctx.Framework.VminSearch(cfg)
					if err != nil {
						return Fig4Entry{}, err
					}
					v := res.SafeVminV
					return Fig4Entry{
						Chip:         ctx.Server.Chip().Corner.String(),
						Benchmark:    bench.Name,
						VminMV:       v * 1000,
						GuardbandPct: (1 - (v/NominalVoltage)*(v/NominalVoltage)) * 100,
					}, nil
				},
			})
		}
	}
	rep, err := campaign.Run(campaign.Config{Workers: workers, Seed: seed}, shards)
	if err != nil {
		return Fig4Result{}, fmt.Errorf("guardband: fig4: %w", err)
	}
	return Fig4Result{Entries: rep.Values()}, nil
}

// Range returns the min and max Vmin (mV) measured on one chip.
func (r Fig4Result) Range(chip string) (lo, hi float64) {
	lo, hi = 0, 0
	for _, e := range r.Entries {
		if e.Chip != chip {
			continue
		}
		if lo == 0 || e.VminMV < lo {
			lo = e.VminMV
		}
		if e.VminMV > hi {
			hi = e.VminMV
		}
	}
	return lo, hi
}

// Table renders the result in the paper's layout (one row per benchmark,
// one column per chip).
func (r Fig4Result) Table() *report.Table {
	t := report.NewTable("Fig. 4: safe Vmin (mV) at 2.4 GHz, most robust core", "benchmark", "TTT", "TFF", "TSS")
	byBench := map[string]map[string]float64{}
	var order []string
	for _, e := range r.Entries {
		if byBench[e.Benchmark] == nil {
			byBench[e.Benchmark] = map[string]float64{}
			order = append(order, e.Benchmark)
		}
		byBench[e.Benchmark][e.Chip] = e.VminMV
	}
	sort.Strings(order)
	for _, b := range order {
		m := byBench[b]
		t.AddRowf(b,
			fmt.Sprintf("%.0f", m["TTT"]),
			fmt.Sprintf("%.0f", m["TFF"]),
			fmt.Sprintf("%.0f", m["TSS"]))
	}
	return t
}

// Fig5Step is one rung of the Fig. 5 power/performance ladder.
type Fig5Step struct {
	// SlowPMDs is how many of the weakest PMDs run at 1.2 GHz.
	SlowPMDs int
	// SafeVminMV is the measured chip-level safe voltage for the
	// eight-benchmark mix at this DVFS assignment.
	SafeVminMV float64
	// PerfPct is delivered throughput relative to all-nominal.
	PerfPct float64
	// PowerPct is relative PMD dynamic power (the figure's labels).
	PowerPct float64
	// SavingsPct is 100 - PowerPct.
	SavingsPct float64
}

// Fig5Result is the Fig. 5 reproduction.
type Fig5Result struct {
	Steps []Fig5Step
	// PredictorSavingsPct is the no-performance-loss operating point the
	// predictor enables (paper: 12.8%).
	PredictorSavingsPct float64
	// MaxSavingsPct is the deepest rung the paper highlights (two slow
	// PMDs, 25% perf loss; paper: 38.8%).
	MaxSavingsPct float64
}

// fig5Assignments computes the Fig. 5 placement: lightest benchmarks on
// the weakest PMDs, so the modules that must stay fast carry the heavy
// current. It is a pure function of the chip, so every ladder shard
// recomputes the identical plan.
func fig5Assignments(chip *silicon.Chip) (predictor.DownclockPlan, []xgene.Assignment) {
	plan := predictor.PlanDownclock(chip)
	mix := workloads.Fig5Mix()
	sort.Slice(mix, func(i, j int) bool { return mix[i].AvgCurrentA() < mix[j].AvgCurrentA() })
	assignments := make([]xgene.Assignment, 0, len(mix))
	for i, w := range mix {
		pmd := plan.Order[i/silicon.CoresPerPMD]
		assignments = append(assignments, xgene.Assignment{
			Core:     silicon.CoreID{PMD: pmd, Core: i % silicon.CoresPerPMD},
			Workload: w,
		})
	}
	return plan, assignments
}

// Fig5TradeoffWorkers reproduces Fig. 5: the multi-programmed
// eight-benchmark mix (bwaves...namd), down-clocking k = 0..4 of the
// weakest PMDs to 1.2 GHz, measuring the chip-level safe Vmin at each
// step, and reporting the power/performance trade-off. Each rung of the
// ladder (k slow PMDs) is one shard of the campaign.
func Fig5TradeoffWorkers(seed uint64, repetitions, workers int) (Fig5Result, error) {
	var shards []campaign.Shard[Fig5Step]
	for k := 0; k <= silicon.NumPMDs; k++ {
		shards = append(shards, campaign.Shard[Fig5Step]{
			Name:  fmt.Sprintf("fig5/slow%d", k),
			Board: campaign.Board{Corner: TTT},
			Run: func(ctx *campaign.Ctx) (Fig5Step, error) {
				plan, assignments := fig5Assignments(ctx.Server.Chip())
				freqs, err := plan.FreqAssignment(k)
				if err != nil {
					return Fig5Step{}, err
				}
				setup := core.NominalSetup(silicon.AllCores()...)
				setup.PMDFreqHz = freqs
				res, err := ctx.Framework.VminSearchMulti(core.MultiVminConfig{
					Assignments: assignments,
					Setup:       setup,
					FloorV:      0.70,
					StepV:       0.005,
					Repetitions: repetitions,
					Seed:        seed,
				})
				if err != nil {
					return Fig5Step{}, err
				}
				var perfSum float64
				for _, f := range freqs {
					perfSum += f / NominalFreqHz
				}
				powerPct := power.PMDDynamicRatio(res.SafeVminV, freqs) * 100
				return Fig5Step{
					SlowPMDs:   k,
					SafeVminMV: res.SafeVminV * 1000,
					PerfPct:    perfSum / silicon.NumPMDs * 100,
					PowerPct:   powerPct,
					SavingsPct: 100 - powerPct,
				}, nil
			},
		})
	}
	rep, err := campaign.Run(campaign.Config{Workers: workers, Seed: seed}, shards)
	if err != nil {
		return Fig5Result{}, fmt.Errorf("guardband: fig5: %w", err)
	}
	out := Fig5Result{Steps: rep.Values()}
	out.PredictorSavingsPct = out.Steps[0].SavingsPct
	out.MaxSavingsPct = out.Steps[2].SavingsPct
	return out, nil
}

// Table renders the ladder.
func (r Fig5Result) Table() *report.Table {
	t := report.NewTable("Fig. 5: power/performance trade-off, 8-benchmark mix on TTT",
		"slow PMDs", "safe Vmin", "perf", "rel power", "savings")
	for _, s := range r.Steps {
		t.AddRowf(fmt.Sprintf("%d", s.SlowPMDs),
			fmt.Sprintf("%.0fmV", s.SafeVminMV),
			fmt.Sprintf("%.1f%%", s.PerfPct),
			fmt.Sprintf("%.1f%%", s.PowerPct),
			fmt.Sprintf("%.1f%%", s.SavingsPct))
	}
	return t
}

// NamedVmin pairs a workload with a measured Vmin.
type NamedVmin struct {
	Name   string
	VminMV float64
}

// Fig6Result compares the crafted dI/dt virus against the NAS suite.
type Fig6Result struct {
	// Virus is the EM-crafted loop's Vmin on the weakest core.
	Virus NamedVmin
	// VirusEMuV is the virus's EM amplitude (the GA's fitness signal).
	VirusEMuV float64
	// VirusLoop is the assembly-like rendering of the crafted loop.
	VirusLoop string
	// NAS holds the suite's Vmins on the same core.
	NAS []NamedVmin
}

// fig6Shard is one bar of Fig. 6 plus the virus metadata when the shard
// crafted it.
type fig6Shard struct {
	Entry NamedVmin
	// Virus marks the crafting shard; EMuV and Loop are set on it.
	Virus bool
	EMuV  float64
	Loop  string
}

// weakestVminSearch runs the paper's undervolting flow for one profile on
// the chip's weakest core.
func weakestVminSearch(ctx *campaign.Ctx, p Profile, seed uint64, repetitions int) (float64, error) {
	weakest := ctx.Server.Chip().WeakestCore()
	cfg := core.DefaultVminConfig(p, core.NominalSetup(weakest))
	cfg.Repetitions = repetitions
	cfg.Seed = seed
	res, err := ctx.Framework.VminSearch(cfg)
	if err != nil {
		return 0, err
	}
	return res.SafeVminV * 1000, nil
}

// craftVirus runs the GA+EM flow against the shard's board and wraps the
// crafted loop as a workload profile on the weakest core.
func craftVirus(srv *Server, seed uint64) (viruses.DIdtResult, Profile, error) {
	weakest := srv.Chip().WeakestCore()
	vcfg := viruses.DefaultDIdtConfig()
	vcfg.Core = weakest
	vcfg.GA.Seed = seed
	crafted, err := viruses.CraftDIdt(srv, vcfg)
	if err != nil {
		return viruses.DIdtResult{}, Profile{}, err
	}
	profile, err := srv.LoopProfile("didt-virus", crafted.Loop, weakest)
	if err != nil {
		return viruses.DIdtResult{}, Profile{}, err
	}
	return crafted, profile, nil
}

// Fig6VirusVsNASWorkers reproduces Fig. 6: craft a dI/dt virus with the
// GA+EM flow on the TTT chip, then Vmin-test it against every NAS
// benchmark on the same (weakest) core. The virus must exhibit the highest
// Vmin. The virus (crafting plus Vmin test) and each NAS benchmark are
// independent shards on the TTT board. The crafting shard demands a fresh
// board because the GA's fitness signal advances the EM probe's
// measurement-noise stream.
func Fig6VirusVsNASWorkers(seed uint64, repetitions, workers int) (Fig6Result, error) {
	shards := []campaign.Shard[fig6Shard]{{
		Name:  "fig6/virus",
		Board: campaign.Board{Corner: TTT, Fresh: true},
		Run: func(ctx *campaign.Ctx) (fig6Shard, error) {
			crafted, profile, err := craftVirus(ctx.Server, seed)
			if err != nil {
				return fig6Shard{}, err
			}
			v, err := weakestVminSearch(ctx, profile, seed, repetitions)
			if err != nil {
				return fig6Shard{}, err
			}
			return fig6Shard{
				Entry: NamedVmin{Name: "EM virus", VminMV: v},
				Virus: true,
				EMuV:  crafted.EMAmplitudeUV,
				Loop:  crafted.Loop.String(),
			}, nil
		},
	}}
	for _, b := range workloads.NASSuite() {
		shards = append(shards, campaign.Shard[fig6Shard]{
			Name:  "fig6/" + b.Name,
			Board: campaign.Board{Corner: TTT},
			Run: func(ctx *campaign.Ctx) (fig6Shard, error) {
				v, err := weakestVminSearch(ctx, b, seed, repetitions)
				if err != nil {
					return fig6Shard{}, err
				}
				return fig6Shard{Entry: NamedVmin{Name: b.Name, VminMV: v}}, nil
			},
		})
	}
	rep, err := campaign.Run(campaign.Config{Workers: workers, Seed: seed}, shards)
	if err != nil {
		return Fig6Result{}, fmt.Errorf("guardband: fig6: %w", err)
	}
	var out Fig6Result
	for _, s := range rep.Values() {
		if s.Virus {
			out.Virus = s.Entry
			out.VirusEMuV = s.EMuV
			out.VirusLoop = s.Loop
			continue
		}
		out.NAS = append(out.NAS, s.Entry)
	}
	return out, nil
}

// Chart renders Fig. 6 as a bar chart.
func (r Fig6Result) Chart() *report.BarChart {
	c := report.NewBarChart("Fig. 6: Vmin of EM virus vs NAS (mV)")
	c.Unit = "mV"
	c.Add(r.Virus.Name, r.Virus.VminMV)
	for _, e := range r.NAS {
		c.Add(e.Name, e.VminMV)
	}
	return c
}

// Fig7Entry is one chip's margin under the EM virus.
type Fig7Entry struct {
	Chip string
	// VirusVminMV is the virus's safe Vmin on the chip's weakest core.
	VirusVminMV float64
	// MarginMV is nominal minus the virus Vmin — the shaveable margin
	// even under pathological noise.
	MarginMV float64
}

// Fig7Result exposes inter-chip process variation through the virus.
type Fig7Result struct {
	Entries []Fig7Entry
}

// Fig7InterChipWorkers reproduces Fig. 7: the EM virus is crafted and
// Vmin-tested on each corner chip; the remaining margin below nominal
// differs sharply across corners (TTT ~60 mV, TFF ~20 mV, TSS ~none). One
// shard per corner chip, each crafting and Vmin-testing the virus on a
// fresh board (crafting advances the EM probe's noise stream, so the shard
// must see the probe in its fabrication state).
func Fig7InterChipWorkers(seed uint64, repetitions, workers int) (Fig7Result, error) {
	var shards []campaign.Shard[Fig7Entry]
	for _, corner := range silicon.Corners() {
		shards = append(shards, campaign.Shard[Fig7Entry]{
			Name:  fmt.Sprintf("fig7/%s", corner),
			Board: campaign.Board{Corner: corner, Fresh: true},
			Run: func(ctx *campaign.Ctx) (Fig7Entry, error) {
				_, profile, err := craftVirus(ctx.Server, seed)
				if err != nil {
					return Fig7Entry{}, err
				}
				v, err := weakestVminSearch(ctx, profile, seed, repetitions)
				if err != nil {
					return Fig7Entry{}, err
				}
				return Fig7Entry{
					Chip:        ctx.Server.Chip().Corner.String(),
					VirusVminMV: v,
					MarginMV:    NominalVoltage*1000 - v,
				}, nil
			},
		})
	}
	rep, err := campaign.Run(campaign.Config{Workers: workers, Seed: seed}, shards)
	if err != nil {
		return Fig7Result{}, fmt.Errorf("guardband: fig7: %w", err)
	}
	return Fig7Result{Entries: rep.Values()}, nil
}

// Table renders the margins.
func (r Fig7Result) Table() *report.Table {
	t := report.NewTable("Fig. 7: inter-chip variation under the EM virus",
		"chip", "virus Vmin", "margin below nominal")
	for _, e := range r.Entries {
		t.AddRowf(e.Chip,
			fmt.Sprintf("%.0fmV", e.VirusVminMV),
			fmt.Sprintf("%.0fmV", e.MarginMV))
	}
	return t
}
