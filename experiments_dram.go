package guardband

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/dram"
	"repro/internal/memsched"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/thermal"
	"repro/internal/workloads"
)

// Table1Result reproduces Table I: unique error locations per bank at two
// regulated temperatures, under 35x-relaxed refresh, over the full set of
// DPBenches.
type Table1Result struct {
	// PerBank50 and PerBank60 count unique failing locations by bank
	// index, aggregated across all 72 devices.
	PerBank50, PerBank60 []int
	// Spread50/Spread60 is the (max-min)/min bank-to-bank variation
	// (paper: 41% at 50 degC, 16% at 60 degC).
	Spread50, Spread60 float64
	// AllCorrected reports whether SECDED corrected every manifested
	// error with no UE/SDC at either temperature (the paper's key claim
	// for <= 60 degC).
	AllCorrected bool
	// RegulationMaxDevC is the worst thermal-testbed deviation from
	// setpoint during the hold windows (paper: < 1 degC).
	RegulationMaxDevC float64
}

// uniqueBankCounts unions the failing locations of several scans and
// counts unique addresses per bank.
func uniqueBankCounts(results []*dram.ScanResult, banks int) []int {
	seen := make(map[dram.CellAddr]bool)
	counts := make([]int, banks)
	for _, r := range results {
		for _, f := range r.Failures {
			if !seen[f] {
				seen[f] = true
				counts[f.Bank]++
			}
		}
	}
	return counts
}

// spreadOf computes (max-min)/min over counts.
func spreadOf(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	mn, mx := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	if mn == 0 {
		return 0
	}
	return float64(mx-mn) / float64(mn)
}

// regulateDIMMs drives the thermal testbed to the target temperature and
// returns the per-DIMM regulated temperatures plus the worst deviation from
// setpoint — the stateful (PID) part of the DRAM flow, which stays serial.
func regulateDIMMs(tb *thermal.Testbed, dimms int, tempC float64) ([]float64, float64, error) {
	if err := tb.SetAllTargets(tempC); err != nil {
		return nil, 0, err
	}
	dev, err := tb.Settle(0.5, time.Hour, 5*time.Minute)
	if err != nil {
		return nil, 0, err
	}
	temps := make([]float64, dimms)
	for d := 0; d < dimms; d++ {
		if temps[d], err = tb.Temp(d); err != nil {
			return nil, 0, err
		}
	}
	return temps, dev, nil
}

// ApplyDIMMTemps pushes regulated per-DIMM temperatures onto a server —
// the state every DRAM scan shard must establish itself before scanning.
func ApplyDIMMTemps(srv *Server, temps []float64) error {
	for d, t := range temps {
		if err := srv.SetDIMMTemp(d, t); err != nil {
			return err
		}
	}
	return nil
}

// DPBenchScanShard builds one DPBench scan shard: it fabricates (or
// reuses) a TTT board, establishes the given per-DIMM temperatures, and
// scans the whole memory with one data-pattern benchmark at the given
// refresh period. Table I and the dram-char campaign binary share it.
func DPBenchScanShard(name string, kind dram.PatternKind, temps []float64, trefp time.Duration, seed uint64) campaign.Shard[*dram.ScanResult] {
	return campaign.Shard[*dram.ScanResult]{
		Name:  name,
		Board: campaign.Board{Corner: TTT},
		Run: func(ctx *campaign.Ctx) (*dram.ScanResult, error) {
			if err := ApplyDIMMTemps(ctx.Server, temps); err != nil {
				return nil, err
			}
			p, err := dram.NewPattern(kind)
			if err != nil {
				return nil, err
			}
			return ctx.Server.DRAM().ScanPattern(p, trefp, seed)
		},
	}
}

// Table1BankVariationWorkers reproduces Table I using the full flow: the
// thermal testbed regulates every DIMM to each target temperature
// (settling under PID control, serial because the testbed is stateful),
// then the four DPBenches scan the memory at the relaxed refresh period as
// one campaign shard per (temperature, pattern) cell, and failing
// locations are unioned per bank.
func Table1BankVariationWorkers(seed uint64, workers int) (Table1Result, error) {
	geom := dram.DefaultConfig().Geometry
	tb, err := thermal.NewTestbed(geom.DIMMs, 30, seed)
	if err != nil {
		return Table1Result{}, err
	}

	var out Table1Result
	temps50, dev50, err := regulateDIMMs(tb, geom.DIMMs, 50)
	if err != nil {
		return out, fmt.Errorf("guardband: table1 at 50C: %w", err)
	}
	temps60, dev60, err := regulateDIMMs(tb, geom.DIMMs, 60)
	if err != nil {
		return out, fmt.Errorf("guardband: table1 at 60C: %w", err)
	}
	out.RegulationMaxDevC = dev50
	if dev60 > out.RegulationMaxDevC {
		out.RegulationMaxDevC = dev60
	}

	var shards []campaign.Shard[*dram.ScanResult]
	for _, kind := range dram.PatternKinds() {
		shards = append(shards, DPBenchScanShard(fmt.Sprintf("table1/50C/%s", kind), kind, temps50, RelaxedTREFP, seed))
	}
	for _, kind := range dram.PatternKinds() {
		shards = append(shards, DPBenchScanShard(fmt.Sprintf("table1/60C/%s", kind), kind, temps60, RelaxedTREFP, seed))
	}
	rep, err := campaign.Run(campaign.Config{Workers: workers, Seed: seed}, shards)
	if err != nil {
		return out, fmt.Errorf("guardband: table1: %w", err)
	}

	scans := rep.Values()
	n := len(dram.PatternKinds())
	out.AllCorrected = true
	for _, s := range scans {
		if s.UE > 0 || s.SDC > 0 {
			out.AllCorrected = false
		}
	}
	out.PerBank50 = uniqueBankCounts(scans[:n], geom.BanksPerDevice)
	out.PerBank60 = uniqueBankCounts(scans[n:], geom.BanksPerDevice)
	out.Spread50 = spreadOf(out.PerBank50)
	out.Spread60 = spreadOf(out.PerBank60)
	return out, nil
}

// Table renders Table I in the paper's layout.
func (r Table1Result) Table() *report.Table {
	t := report.NewTable("Table I: unique error locations per bank (35x TREFP)",
		"temp", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "spread")
	row := func(label string, counts []int, spread float64) {
		cells := []string{label}
		for _, c := range counts {
			cells = append(cells, fmt.Sprintf("%d", c))
		}
		cells = append(cells, report.Pct(spread))
		t.AddRowf(cells...)
	}
	row("50C", r.PerBank50, r.Spread50)
	row("60C", r.PerBank60, r.Spread60)
	return t
}

// BEREntry is one bar of Fig. 8a.
type BEREntry struct {
	Name string
	BER  float64
}

// Fig8aResult holds the BER comparison of DPBenches vs Rodinia.
type Fig8aResult struct {
	DPBench []BEREntry
	Rodinia []BEREntry
	// AllCorrected reports ECC coverage over every scan.
	AllCorrected bool
}

// fig8aShard is one bar of Fig. 8a.
type fig8aShard struct {
	Entry   BEREntry
	Rodinia bool
	Clean   bool // no UE/SDC in the scan
}

// Fig8aBERWorkers reproduces Fig. 8a at 60 degC and 35x-relaxed refresh:
// bit error rates of the four data-pattern benchmarks versus the four
// Rodinia HPC applications, one campaign shard per scan.
func Fig8aBERWorkers(seed uint64, workers int) (Fig8aResult, error) {
	var shards []campaign.Shard[fig8aShard]
	at60 := func(ctx *campaign.Ctx) error { return ctx.Server.SetAllDIMMTemps(60) }
	for _, kind := range dram.PatternKinds() {
		shards = append(shards, campaign.Shard[fig8aShard]{
			Name:  fmt.Sprintf("fig8a/dp/%s", kind),
			Board: campaign.Board{Corner: TTT},
			Run: func(ctx *campaign.Ctx) (fig8aShard, error) {
				if err := at60(ctx); err != nil {
					return fig8aShard{}, err
				}
				p, err := dram.NewPattern(kind)
				if err != nil {
					return fig8aShard{}, err
				}
				res, err := ctx.Server.DRAM().ScanPattern(p, RelaxedTREFP, seed)
				if err != nil {
					return fig8aShard{}, err
				}
				return fig8aShard{
					Entry: BEREntry{Name: kind.String(), BER: res.BER},
					Clean: res.UE == 0 && res.SDC == 0,
				}, nil
			},
		})
	}
	for _, w := range workloads.RodiniaSuite() {
		shards = append(shards, campaign.Shard[fig8aShard]{
			Name:  "fig8a/rodinia/" + w.Name,
			Board: campaign.Board{Corner: TTT},
			Run: func(ctx *campaign.Ctx) (fig8aShard, error) {
				if err := at60(ctx); err != nil {
					return fig8aShard{}, err
				}
				res, err := ctx.Server.DRAM().ScanWorkload(w.Mem, RelaxedTREFP, seed)
				if err != nil {
					return fig8aShard{}, err
				}
				return fig8aShard{
					Entry:   BEREntry{Name: w.Name, BER: res.BER},
					Rodinia: true,
					Clean:   res.UE == 0 && res.SDC == 0,
				}, nil
			},
		})
	}
	rep, err := campaign.Run(campaign.Config{Workers: workers, Seed: seed}, shards)
	if err != nil {
		return Fig8aResult{}, fmt.Errorf("guardband: fig8a: %w", err)
	}
	out := Fig8aResult{AllCorrected: true}
	for _, s := range rep.Values() {
		if !s.Clean {
			out.AllCorrected = false
		}
		if s.Rodinia {
			out.Rodinia = append(out.Rodinia, s.Entry)
		} else {
			out.DPBench = append(out.DPBench, s.Entry)
		}
	}
	return out, nil
}

// Chart renders Fig. 8a.
func (r Fig8aResult) Chart() *report.BarChart {
	c := report.NewBarChart("Fig. 8a: BER at 60C, 35x TREFP")
	for _, e := range r.DPBench {
		c.Add("dp/"+e.Name, e.BER*1e9)
	}
	for _, e := range r.Rodinia {
		c.Add(e.Name, e.BER*1e9)
	}
	c.Unit = "e-9"
	return c
}

// SavingsEntry is one bar of Fig. 8b.
type SavingsEntry struct {
	Name       string
	SavingsPct float64
}

// Fig8bResult holds the DRAM power savings of refresh relaxation.
type Fig8bResult struct {
	Entries []SavingsEntry
}

// Fig8bRefreshPower reproduces Fig. 8b: DRAM-domain power savings of the
// 35x refresh relaxation for each Rodinia application (paper: nw 27.3%
// max, kmeans 9.4% min).
func Fig8bRefreshPower() (Fig8bResult, error) {
	var out Fig8bResult
	for _, w := range workloads.RodiniaSuite() {
		nom, err := power.DRAMPowerW(NominalTREFP, w.DRAMBandwidthGBs)
		if err != nil {
			return out, err
		}
		rel, err := power.DRAMPowerW(RelaxedTREFP, w.DRAMBandwidthGBs)
		if err != nil {
			return out, err
		}
		out.Entries = append(out.Entries, SavingsEntry{
			Name:       w.Name,
			SavingsPct: power.Savings(nom, rel) * 100,
		})
	}
	return out, nil
}

// Chart renders Fig. 8b.
func (r Fig8bResult) Chart() *report.BarChart {
	c := report.NewBarChart("Fig. 8b: DRAM power savings at 35x TREFP")
	c.Unit = "%"
	for _, e := range r.Entries {
		c.Add(e.Name, e.SavingsPct)
	}
	return c
}

// StencilResult is the Section IV.C access-pattern scheduling case study.
type StencilResult struct {
	// BaselineMaxInterval and TiledMaxInterval are the worst row revisit
	// gaps of the naive and scheduled stencil sweeps.
	BaselineMaxInterval, TiledMaxInterval time.Duration
	// MeetsTREFP reports whether the scheduled intervals stay below the
	// relaxed refresh period (the paper's observation).
	MeetsTREFP bool
	// BaselineErrors and TiledErrors are manifested retention failures of
	// a 60 degC scan with the respective effective per-row intervals.
	BaselineErrors, TiledErrors int
}

// StencilScheduling reproduces the stencil case study: a multi-pass sweep
// whose naive row revisit gap exceeds the relaxed refresh period is
// re-tiled so every live row is re-touched in time, and the DRAM model
// confirms the manifested-error reduction.
func StencilScheduling(seed uint64) (StencilResult, error) {
	const (
		rows   = 65536
		passes = 4
		sweep  = 8 * time.Second
	)
	// Tile to a quarter of the relaxed refresh period: comfortably inside
	// the retention-critical window, so the error reduction is decisive
	// rather than marginal.
	rep, err := memsched.Analyze(rows, passes, sweep, RelaxedTREFP/4)
	if err != nil {
		return StencilResult{}, err
	}
	out := StencilResult{
		BaselineMaxInterval: rep.BaselineMaxInterval,
		TiledMaxInterval:    rep.TiledMaxInterval,
		MeetsTREFP:          rep.TiledMeetsTarget,
	}

	srv, err := NewServer(TTT, seed)
	if err != nil {
		return out, err
	}
	if err := srv.SetAllDIMMTemps(60); err != nil {
		return out, err
	}
	stencil := workloads.Stencil()
	scanWith := func(interval time.Duration) (int, error) {
		mem := stencil.Mem
		mem.HotFraction = 1
		mem.ReuseInterval = interval
		res, err := srv.DRAM().ScanWorkload(mem, RelaxedTREFP, seed)
		if err != nil {
			return 0, err
		}
		return len(res.Failures), nil
	}
	if out.BaselineErrors, err = scanWith(rep.BaselineMaxInterval); err != nil {
		return out, err
	}
	if out.TiledErrors, err = scanWith(rep.TiledMaxInterval); err != nil {
		return out, err
	}
	return out, nil
}
