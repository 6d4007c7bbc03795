package xgene

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/silicon"
	"repro/internal/workloads"
)

// Assignment places one benchmark instance on one core — the unit of the
// paper's multi-programmed setups (Fig. 5 runs eight different SPEC
// programs on the eight cores simultaneously).
type Assignment struct {
	Core     silicon.CoreID
	Workload workloads.Profile
}

// RunMulti executes a multi-programmed workload: every assignment runs its
// own benchmark on its own core. Chip-level droop combines the per-core
// currents (scaled by each core's clock ratio, since switching activity
// tracks frequency); the worst per-core failure decides the outcome.
func (s *Server) RunMulti(assignments []Assignment, seed uint64) (RunResult, error) {
	if !s.booted {
		return RunResult{}, errors.New("xgene: server is down; reboot first")
	}
	if len(assignments) == 0 {
		return RunResult{}, errors.New("xgene: no assignments")
	}
	var seen uint64 // bitmask over core indices; NumCores << 64
	for _, a := range assignments {
		if !a.Core.Valid() {
			return RunResult{}, fmt.Errorf("xgene: invalid core %+v", a.Core)
		}
		bit := uint64(1) << a.Core.Index()
		if seen&bit != 0 {
			return RunResult{}, fmt.Errorf("xgene: core %v assigned twice", a.Core)
		}
		seen |= bit
		if err := a.Workload.Validate(); err != nil {
			return RunResult{}, err
		}
	}
	// Incremental label: same bytes (and hence the same derived stream) as
	// the old fmt.Sprintf("runmulti/%d/%d", ...), without the allocation.
	runRng := s.rng.SplitLabel(runMultiLabelPrefix.Int(len(assignments)).Byte('/').Uint(seed))

	// Chip-level droop: mean per-core current (frequency-scaled) plus
	// mean resonant content, with interference from full-speed cores.
	var sumA, sumRes float64
	fast := 0
	for _, a := range assignments {
		fRatio := s.pmdFreqHz[a.Core.PMD] / silicon.NominalFreqHz
		sumA += a.Workload.AvgCurrentA() * fRatio
		sumRes += a.Workload.ResonantCurrentA * fRatio
		if fRatio >= 1.0 {
			fast++
		}
	}
	n := float64(len(assignments))
	droop := s.chip.DroopMV(silicon.DroopInput{
		AvgCurrentA:      sumA / n,
		ResonantCurrentA: sumRes / n,
		ActiveFastCores:  fast,
	}) + runRng.NormMS(0, 0.4)
	if droop < 0 {
		droop = 0
	}

	res := RunResult{Outcome: OutcomeOK, DroopMV: droop}

	worst := silicon.NoFailure
	for _, a := range assignments {
		mode, err := s.chip.Evaluate(a.Core, s.pmdFreqHz[a.Core.PMD], s.pmdVoltage, droop, a.Workload.CacheStress)
		if err != nil {
			return RunResult{}, err
		}
		if mode > worst {
			worst = mode
			res.FailingCore = a.Core
		}
	}
	switch worst {
	case silicon.LogicFailure:
		if runRng.Float64() < 0.30 {
			res.Outcome = OutcomeHang
		} else {
			res.Outcome = OutcomeCrash
		}
		s.booted = false
	case silicon.CacheFailure:
		r := runRng.Float64()
		switch {
		case r < 0.70:
			res.Outcome = OutcomeCE
		case r < 0.90:
			res.Outcome = OutcomeSDC
		default:
			res.Outcome = OutcomeUE
		}
	}

	// DRAM errors: use the union footprint approximated by the largest
	// assignment (multi-programmed DRAM behaviour is dominated by the
	// biggest resident set).
	var scan *dram.ScanResult
	if s.mem.ExpectedFailureUpperBound(s.trefp) >= 0.01 {
		big := assignments[0].Workload.Mem
		for _, a := range assignments[1:] {
			if a.Workload.Mem.FootprintBytes > big.FootprintBytes {
				big = a.Workload.Mem
			}
		}
		var err error
		scan, err = s.mem.ScanWorkload(big, s.trefp, seed)
		if err != nil {
			return RunResult{}, err
		}
		res.DRAMCE, res.DRAMUE, res.DRAMSDC = scan.CE, scan.UE, scan.SDC
		res.Outcome = worseOutcome(res.Outcome, dramOutcome(scan))
	}

	// Power and performance.
	var load power.CoreLoad
	for i := range load.CurrentA {
		load.CurrentA[i] = power.IdleCoreCurrentA
	}
	for i := range load.PMDFreqHz {
		load.PMDFreqHz[i] = s.pmdFreqHz[i]
	}
	var bw, perfSum float64
	var maxDur time.Duration
	for _, a := range assignments {
		fRatio := s.pmdFreqHz[a.Core.PMD] / silicon.NominalFreqHz
		load.CurrentA[a.Core.Index()] = a.Workload.AvgCurrentA()
		bw += a.Workload.DRAMBandwidthGBs / float64(silicon.NumCores) * fRatio
		perfSum += fRatio
		d := time.Duration(float64(a.Workload.Duration) / fRatio)
		if d > maxDur {
			maxDur = d
		}
	}
	res.PerfRatio = perfSum / n
	pw, err := power.Server(s.chip, s.OperatingPoint(), load, bw)
	if err != nil {
		return RunResult{}, err
	}
	res.Power = pw
	res.Duration = maxDur
	return res, nil
}
