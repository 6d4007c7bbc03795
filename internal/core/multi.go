package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/xgene"
)

// MultiTarget is the extended surface for multi-programmed runs.
// *xgene.Server implements it.
type MultiTarget interface {
	Target
	RunMulti(assignments []xgene.Assignment, seed uint64) (xgene.RunResult, error)
}

var _ MultiTarget = (*xgene.Server)(nil)

// ExecuteRunMulti performs one multi-programmed run under a setup (the
// setup's Cores field is ignored; placement comes from the assignments),
// with the same hang/crash recovery as ExecuteRun.
func (f *Framework) ExecuteRunMulti(assignments []xgene.Assignment, setup Setup, rep int, seed uint64) (RunRecord, error) {
	mt, ok := f.target.(MultiTarget)
	if !ok {
		return RunRecord{}, errors.New("core: target does not support multi-programmed runs")
	}
	if !f.target.Booted() {
		f.elapsed += f.target.Reboot()
	}
	// Setup validation requires cores; synthesize from assignments.
	s := setup
	s.Cores = s.Cores[:0]
	for _, a := range assignments {
		s.Cores = append(s.Cores, a.Core)
	}
	if err := s.Apply(f.target); err != nil {
		return RunRecord{}, err
	}
	res, err := mt.RunMulti(assignments, seed)
	if err != nil {
		return RunRecord{}, fmt.Errorf("core: multi run: %w", err)
	}
	rec := RunRecord{
		Benchmark:  "multi",
		Setup:      s,
		Repetition: rep,
		Outcome:    res.Outcome,
		DroopMV:    res.DroopMV,
		DRAMCE:     res.DRAMCE,
		DRAMUE:     res.DRAMUE,
		DRAMSDC:    res.DRAMSDC,
		SimTime:    res.Duration,
	}
	switch res.Outcome {
	case xgene.OutcomeHang:
		rec.SimTime += f.WatchdogTimeout
		rec.SimTime += f.target.Reboot()
		rec.Recovered = true
	case xgene.OutcomeCrash:
		rec.SimTime += 10 * time.Second // crash detection, as in ExecuteRun
		rec.SimTime += f.target.Reboot()
		rec.Recovered = true
	}
	f.logRun(rec)
	return rec, nil
}

// MultiVminConfig parameterizes a multi-programmed safe-Vmin search.
type MultiVminConfig struct {
	Assignments []xgene.Assignment
	// Setup is the base operating point (per-PMD clocks matter here; its
	// PMDVoltage is the descent start).
	Setup Setup
	// FloorV, StepV, Repetitions, Seed as in VminConfig.
	FloorV      float64
	StepV       float64
	Repetitions int
	Seed        uint64
}

// Validate reports configuration errors.
func (c MultiVminConfig) Validate() error {
	if len(c.Assignments) == 0 {
		return errors.New("core: no assignments")
	}
	if c.StepV <= 0 {
		return errors.New("core: step must be positive")
	}
	if c.FloorV <= 0 || c.FloorV >= c.Setup.PMDVoltage {
		return errors.New("core: floor must sit below the start voltage")
	}
	if c.Repetitions <= 0 {
		return errors.New("core: repetitions must be positive")
	}
	return nil
}

// VminSearchMulti is VminSearch for a multi-programmed workload: it finds
// the chip-level safe voltage for the whole assignment set at the setup's
// per-PMD clocks — the search behind each rung of the Fig. 5 ladder.
func (f *Framework) VminSearchMulti(cfg MultiVminConfig) (VminResult, error) {
	if err := cfg.Validate(); err != nil {
		return VminResult{}, err
	}
	res := VminResult{
		Benchmark:       "multi",
		SafeVminV:       cfg.Setup.PMDVoltage,
		FailureOutcomes: make(map[xgene.Outcome]int),
	}
	startV := cfg.Setup.PMDVoltage
	for v := startV; v >= cfg.FloorV-1e-9; v -= cfg.StepV {
		setup := cfg.Setup
		setup.PMDVoltage = RoundMV(v)
		failed := false
		for rep := 0; rep < cfg.Repetitions; rep++ {
			seed := VminRunSeed(cfg.Seed, v, rep)
			rec, err := f.ExecuteRunMulti(cfg.Assignments, setup, rep, seed)
			if err != nil {
				return res, fmt.Errorf("core: multi vmin at %v: %w", setup.PMDVoltage, err)
			}
			res.Records = append(res.Records, rec)
			if rec.Outcome.IsFailure() {
				failed = true
				res.FailureOutcomes[rec.Outcome]++
				break
			}
		}
		if failed {
			res.FirstFailV = setup.PMDVoltage
			break
		}
		res.SafeVminV = setup.PMDVoltage
	}
	res.GuardbandV = RoundMV(startV - res.SafeVminV)
	return res, nil
}
