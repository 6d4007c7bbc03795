package guardband

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/jammer"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/silicon"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

// DomainPower is a per-domain server power snapshot (Fig. 9's bars).
type DomainPower struct {
	PMDW, SoCW, DRAMW, OtherW, TotalW float64
}

func domainPower(b power.Breakdown) DomainPower {
	return DomainPower{
		PMDW:   b.PMDW,
		SoCW:   b.SoCW,
		DRAMW:  b.DRAMW,
		OtherW: b.OtherW,
		TotalW: b.TotalW(),
	}
}

// Fig9Result is the end-to-end exploitation demo: the jammer detector at
// the nominal vs the characterized safe operating point.
type Fig9Result struct {
	Nominal, Undervolted DomainPower
	// Per-domain and total savings fractions (paper: PMD 20.3%, SoC 6.9%,
	// DRAM 33.3%, total 20.2%).
	PMDSavings, SoCSavings, DRAMSavings, TotalSavings float64
	// Outcome of the undervolted run (must be clean).
	UndervoltedOutcome string
	// QoS of the 4-instance detector deployment at the safe point.
	Recall            float64
	FalsePositiveRate float64
	DeadlineMet       bool
}

// SafeOperatingPoint is the characterization-derived point used by Fig. 9:
// PMD rail 930 mV, SoC rail 920 mV, refresh relaxed 35x.
func SafeOperatingPoint() (pmdV, socV float64, trefp float64) {
	return 0.930, 0.920, RelaxedTREFP.Seconds()
}

// Fig9JammerSavingsWorkers reproduces Fig. 9: run four parallel
// jammer-detector instances at nominal settings and at the safe operating
// point (one campaign shard per operating point), read the per-domain
// power sensors, verify clean execution and QoS, and report the savings.
func Fig9JammerSavingsWorkers(seed uint64, workers int) (Fig9Result, error) {
	profile := workloads.Jammer()
	spec := xgene.RunSpec{Workload: profile, Cores: silicon.AllCores(), Seed: seed}

	// Each shard establishes its full operating point itself (the engine
	// may hand it a reused board carrying the other shard's settings).
	atPoint := func(pmdV, socV float64, trefp time.Duration) func(*campaign.Ctx) (xgene.RunResult, error) {
		return func(ctx *campaign.Ctx) (xgene.RunResult, error) {
			if err := ctx.Server.SetPMDVoltage(pmdV); err != nil {
				return xgene.RunResult{}, err
			}
			if err := ctx.Server.SetSoCVoltage(socV); err != nil {
				return xgene.RunResult{}, err
			}
			if err := ctx.Server.SetTREFP(trefp); err != nil {
				return xgene.RunResult{}, err
			}
			return ctx.Server.Run(spec)
		}
	}
	safePMDV, safeSoCV, _ := SafeOperatingPoint()
	nominalRun := atPoint(NominalVoltage, NominalVoltage, NominalTREFP)
	shards := []campaign.Shard[xgene.RunResult]{
		{
			Name:  "fig9/nominal",
			Board: campaign.Board{Corner: TTT},
			Run: func(ctx *campaign.Ctx) (xgene.RunResult, error) {
				res, err := nominalRun(ctx)
				if err != nil {
					return res, err
				}
				if res.Outcome != xgene.OutcomeOK {
					return res, fmt.Errorf("nominal run not clean: %v", res.Outcome)
				}
				return res, nil
			},
		},
		{
			Name:  "fig9/safe-point",
			Board: campaign.Board{Corner: TTT},
			Run:   atPoint(safePMDV, safeSoCV, RelaxedTREFP),
		},
	}
	rep, err := campaign.Run(campaign.Config{Workers: workers, Seed: seed}, shards)
	if err != nil {
		return Fig9Result{}, fmt.Errorf("guardband: fig9: %w", err)
	}
	nominal, undervolted := rep.Results[0].Value, rep.Results[1].Value

	// QoS of the real detector pipeline at the (unchanged) nominal clock.
	dep, err := jammer.NewDeployment(jammer.DefaultConfig(), 4)
	if err != nil {
		return Fig9Result{}, err
	}
	qos, err := dep.Run(50, NominalFreqHz)
	if err != nil {
		return Fig9Result{}, err
	}

	res := Fig9Result{
		Nominal:            domainPower(nominal.Power),
		Undervolted:        domainPower(undervolted.Power),
		UndervoltedOutcome: undervolted.Outcome.String(),
		Recall:             qos.Recall,
		FalsePositiveRate:  qos.FalsePositiveRate,
		DeadlineMet:        qos.DeadlineMet,
	}
	res.PMDSavings = power.Savings(res.Nominal.PMDW, res.Undervolted.PMDW)
	res.SoCSavings = power.Savings(res.Nominal.SoCW, res.Undervolted.SoCW)
	res.DRAMSavings = power.Savings(res.Nominal.DRAMW, res.Undervolted.DRAMW)
	res.TotalSavings = power.Savings(res.Nominal.TotalW, res.Undervolted.TotalW)
	return res, nil
}

// Table renders Fig. 9's per-domain comparison.
func (r Fig9Result) Table() *report.Table {
	t := report.NewTable("Fig. 9: jammer detector power per domain",
		"domain", "nominal", "undervolted", "savings")
	row := func(name string, a, b float64) {
		t.AddRowf(name,
			fmt.Sprintf("%.1fW", a),
			fmt.Sprintf("%.1fW", b),
			report.Pct(power.Savings(a, b)))
	}
	row("PMD", r.Nominal.PMDW, r.Undervolted.PMDW)
	row("SoC", r.Nominal.SoCW, r.Undervolted.SoCW)
	row("DRAM", r.Nominal.DRAMW, r.Undervolted.DRAMW)
	row("other", r.Nominal.OtherW, r.Undervolted.OtherW)
	row("total", r.Nominal.TotalW, r.Undervolted.TotalW)
	return t
}
