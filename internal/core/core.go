// Package core implements the paper's automated characterization framework
// (Fig. 2): the initialization / execution / parsing pipeline that finds a
// system's limits under scaled voltage, frequency and refresh conditions
// and logs the effects of every run.
//
// The framework drives the server exclusively through the Target interface
// (the SLIMpro-style configuration surface plus run launching), so it works
// identically against the simulated X-Gene2 in internal/xgene and would
// against real hardware. It owns the pieces the paper describes around the
// benchmark itself:
//
//   - a characterization setup (V/F point, core placement, refresh period)
//     applied before every run;
//   - a watchdog monitor that detects hangs and pulls the reset switch;
//   - crash recovery through reboot, re-applying the setup afterwards;
//   - repetition (the paper runs each undervolting experiment ten times);
//   - outcome classification (OK / CE / UE / SDC / crash / hang) with
//     golden-reference comparison folded in by the execution layer;
//   - campaign bookkeeping on a simulated clock, so multi-day experiments
//     replay in milliseconds with faithful accounting.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/silicon"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

// Target is the hardware surface the framework drives. *xgene.Server
// implements it; a port to a real board would too.
type Target interface {
	SetPMDVoltage(v float64) error
	SetSoCVoltage(v float64) error
	SetPMDFreq(pmd int, hz float64) error
	SetTREFP(d time.Duration) error
	Run(spec xgene.RunSpec) (xgene.RunResult, error)
	Reboot() time.Duration
	Booted() bool
}

var _ Target = (*xgene.Server)(nil)

// Setup is one characterization operating point (the paper's
// "characterization setup").
type Setup struct {
	// PMDVoltage and SoCVoltage set the rails (volts).
	PMDVoltage, SoCVoltage float64
	// PMDFreqHz sets each module's clock.
	PMDFreqHz [silicon.NumPMDs]float64
	// TREFP sets the DRAM refresh period.
	TREFP time.Duration
	// Cores places the benchmark instances.
	Cores []silicon.CoreID
}

// NominalSetup returns the manufacturer operating point on the given cores.
func NominalSetup(cores ...silicon.CoreID) Setup {
	s := Setup{
		PMDVoltage: silicon.NominalVoltage,
		SoCVoltage: silicon.NominalVoltage,
		TREFP:      64 * time.Millisecond,
		Cores:      cores,
	}
	for i := range s.PMDFreqHz {
		s.PMDFreqHz[i] = silicon.NominalFreqHz
	}
	return s
}

// Validate reports setup errors.
func (s Setup) Validate() error {
	if s.PMDVoltage <= 0 || s.SoCVoltage <= 0 {
		return errors.New("core: non-positive rail voltage")
	}
	for _, f := range s.PMDFreqHz {
		if f <= 0 {
			return errors.New("core: non-positive PMD clock")
		}
	}
	if s.TREFP <= 0 {
		return errors.New("core: non-positive TREFP")
	}
	if len(s.Cores) == 0 {
		return errors.New("core: setup places no cores")
	}
	return nil
}

// Apply pushes the setup onto the target.
func (s Setup) Apply(t Target) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := t.SetPMDVoltage(s.PMDVoltage); err != nil {
		return fmt.Errorf("core: apply PMD rail: %w", err)
	}
	if err := t.SetSoCVoltage(s.SoCVoltage); err != nil {
		return fmt.Errorf("core: apply SoC rail: %w", err)
	}
	for pmd, f := range s.PMDFreqHz {
		if err := t.SetPMDFreq(pmd, f); err != nil {
			return fmt.Errorf("core: apply PMD %d clock: %w", pmd, err)
		}
	}
	if err := t.SetTREFP(s.TREFP); err != nil {
		return fmt.Errorf("core: apply TREFP: %w", err)
	}
	return nil
}

// RunRecord is the parsed log of one characterization run.
type RunRecord struct {
	Benchmark  string
	Setup      Setup
	Repetition int
	Outcome    xgene.Outcome
	DroopMV    float64
	DRAMCE     int
	DRAMUE     int
	DRAMSDC    int
	// Recovered reports whether the framework had to reset/reboot the
	// board after this run.
	Recovered bool
	// SimTime is the simulated wall-clock cost of the run including any
	// recovery.
	SimTime time.Duration
}

// Framework orchestrates characterization campaigns against one target.
type Framework struct {
	target Target
	// WatchdogTimeout is how long the watchdog monitor waits for a
	// heartbeat before pulling the reset switch.
	WatchdogTimeout time.Duration
	// clock accumulates simulated campaign time.
	elapsed time.Duration
	// out, when set, receives every record the framework returns.
	out *[]RunRecord
}

// NewFramework wraps a target with the default watchdog policy.
func NewFramework(t Target) (*Framework, error) {
	if t == nil {
		return nil, errors.New("core: nil target")
	}
	return &Framework{
		target:          t,
		WatchdogTimeout: 5 * time.Minute,
	}, nil
}

// Elapsed returns the total simulated campaign time so far.
func (f *Framework) Elapsed() time.Duration { return f.elapsed }

// AppendTo hands every record ExecuteRun and ExecuteRunMulti return to
// *dst as well, appended in execution order. The framework keeps no
// records of its own: the caller owns the slice (the campaign engine
// points every board of a shard at the shard's one record slice).
func (f *Framework) AppendTo(dst *[]RunRecord) { f.out = dst }

// logRun accounts a finished run's simulated time and hands the record
// to the AppendTo slice, if any.
func (f *Framework) logRun(rec RunRecord) {
	f.elapsed += rec.SimTime
	if f.out != nil {
		*f.out = append(*f.out, rec)
	}
}

// ExecuteRun performs one run of a benchmark under a setup, handling hang
// detection (watchdog), crash recovery, and setup re-application.
func (f *Framework) ExecuteRun(bench workloads.Profile, setup Setup, rep int, seed uint64) (RunRecord, error) {
	if !f.target.Booted() {
		f.elapsed += f.target.Reboot()
	}
	if err := setup.Apply(f.target); err != nil {
		return RunRecord{}, err
	}
	res, err := f.target.Run(xgene.RunSpec{
		Workload: bench,
		Cores:    setup.Cores,
		Seed:     seed,
	})
	if err != nil {
		return RunRecord{}, fmt.Errorf("core: run %s: %w", bench.Name, err)
	}
	rec := RunRecord{
		Benchmark:  bench.Name,
		Setup:      setup,
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
		// The run produced no completion marker; the watchdog monitor
		// waits its full timeout before pulling the reset switch.
		rec.SimTime += f.WatchdogTimeout
		rec.SimTime += f.target.Reboot()
		rec.Recovered = true
	case xgene.OutcomeCrash:
		// Crash is detected from the serial console quickly; power-cycle.
		rec.SimTime += 10 * time.Second
		rec.SimTime += f.target.Reboot()
		rec.Recovered = true
	}
	f.logRun(rec)
	return rec, nil
}

// Campaign runs every benchmark at every setup, repetitions times each,
// and returns the records it produced.
func (f *Framework) Campaign(benches []workloads.Profile, setups []Setup, repetitions int, seed uint64) ([]RunRecord, error) {
	if len(benches) == 0 || len(setups) == 0 {
		return nil, errors.New("core: campaign needs benchmarks and setups")
	}
	if repetitions <= 0 {
		return nil, errors.New("core: repetitions must be positive")
	}
	var out []RunRecord
	for bi, b := range benches {
		for si, s := range setups {
			for rep := 0; rep < repetitions; rep++ {
				runSeed := seed ^ uint64(bi)<<40 ^ uint64(si)<<20 ^ uint64(rep)
				rec, err := f.ExecuteRun(b, s, rep, runSeed)
				if err != nil {
					return out, err
				}
				out = append(out, rec)
			}
		}
	}
	return out, nil
}

// Summary is the parsing-phase aggregate for one (benchmark, setup) cell.
type Summary struct {
	Benchmark string
	Voltage   float64
	Total     int
	ByOutcome map[xgene.Outcome]int
}

// Summarize aggregates records into per-(benchmark, voltage) outcome
// counts — the fine-grained classification of the parsing phase.
func Summarize(records []RunRecord) []Summary {
	type key struct {
		bench string
		v     float64
	}
	idx := map[key]int{}
	var out []Summary
	for _, r := range records {
		k := key{r.Benchmark, r.Setup.PMDVoltage}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, Summary{
				Benchmark: r.Benchmark,
				Voltage:   r.Setup.PMDVoltage,
				ByOutcome: make(map[xgene.Outcome]int),
			})
		}
		out[i].Total++
		out[i].ByOutcome[r.Outcome]++
	}
	return out
}
