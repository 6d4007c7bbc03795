package xgene

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/microarch"
	"repro/internal/power"
	"repro/internal/silicon"
	"repro/internal/simcache"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// Outcome classifies one run the way the paper's parsing phase does.
type Outcome int

const (
	// OutcomeOK is a clean run with output matching the golden reference.
	OutcomeOK Outcome = iota + 1
	// OutcomeCE means only corrected errors were reported (ECC/parity).
	OutcomeCE
	// OutcomeUE means an uncorrectable error was detected and reported.
	OutcomeUE
	// OutcomeSDC means the output mismatched the golden reference with no
	// error reported — silent data corruption.
	OutcomeSDC
	// OutcomeCrash means the OS or the process died (panic, machine check).
	OutcomeCrash
	// OutcomeHang means the machine stopped responding; only the
	// framework's watchdog recovers it.
	OutcomeHang
)

// String names the outcome with the paper's abbreviations.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "OK"
	case OutcomeCE:
		return "CE"
	case OutcomeUE:
		return "UE"
	case OutcomeSDC:
		return "SDC"
	case OutcomeCrash:
		return "crash"
	case OutcomeHang:
		return "hang"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Severity orders outcomes from benign to catastrophic.
func (o Outcome) Severity() int {
	switch o {
	case OutcomeOK:
		return 0
	case OutcomeCE:
		return 1
	case OutcomeUE:
		return 2
	case OutcomeSDC:
		return 3
	case OutcomeCrash:
		return 4
	case OutcomeHang:
		return 5
	default:
		return -1
	}
}

// IsFailure reports whether the outcome counts against a "safe" operating
// point. Corrected errors do not disrupt operation but the paper's safe
// Vmin is the point of fully clean execution, so CE counts as a failure
// for Vmin purposes; callers can use Severity for laxer policies.
func (o Outcome) IsFailure() bool { return o != OutcomeOK }

// RunSpec describes one characterization run.
type RunSpec struct {
	// Workload is the benchmark profile to execute.
	Workload workloads.Profile
	// Cores lists where instances run (one process per listed core).
	Cores []silicon.CoreID
	// Seed drives run-to-run variation (droop jitter, DRAM VRT state,
	// failure-mode draws). Campaigns pass distinct seeds per repetition.
	Seed uint64
}

// Validate reports spec errors.
func (r RunSpec) Validate() error {
	if err := r.Workload.Validate(); err != nil {
		return err
	}
	return validateCores(r.Cores)
}

// validateCores checks a run's placement: at least one core, each valid
// and listed once.
func validateCores(cores []silicon.CoreID) error {
	if len(cores) == 0 {
		return errors.New("xgene: run needs at least one core")
	}
	var seen uint64 // bitmask over core indices; NumCores << 64
	for _, id := range cores {
		if !id.Valid() {
			return fmt.Errorf("xgene: invalid core %+v", id)
		}
		bit := uint64(1) << id.Index()
		if seen&bit != 0 {
			return fmt.Errorf("xgene: core %v listed twice", id)
		}
		seen |= bit
	}
	return nil
}

// RunResult is everything a run reports back to the framework.
type RunResult struct {
	Outcome Outcome
	// FailingCore is set for crash/hang/cache-error outcomes.
	FailingCore silicon.CoreID
	// DroopMV is the supply noise the run induced (the quantity the EM
	// probe senses; not observable directly on the real board).
	DroopMV float64
	// Counters holds the performance counters of one instance.
	Counters microarch.Counters
	// Power is the SLIMpro power-sensor breakdown during the run.
	Power power.Breakdown
	// DRAMCE/UE/SDC count memory errors reported by the MCU ECC.
	DRAMCE, DRAMUE, DRAMSDC int
	// Duration is the simulated wall time of the run.
	Duration time.Duration
	// PerfRatio is delivered throughput relative to all-cores-nominal.
	PerfRatio float64
}

// activeFastCores counts run cores whose PMD runs at the nominal clock.
func (s *Server) activeFastCores(cores []silicon.CoreID) int {
	n := 0
	for _, id := range cores {
		if s.pmdFreqHz[id.PMD] >= silicon.NominalFreqHz {
			n++
		}
	}
	return n
}

// Pre-interned split-label prefixes for the run hot paths; extending a
// Label is by-value, so these are safely shared by every server and
// goroutine in the process.
var (
	runLabelPrefix      = xrand.NewLabel("run/")
	runMultiLabelPrefix = xrand.NewLabel("runmulti/")
)

// Simulation parameters of the counter model: every run of a profile
// reports the counters of the same 200k-instruction simulation, matching
// the paper's per-workload counter capture.
const (
	simInstructions = 200000
	simSeed         = 0xC0FFEE
)

// counters returns the performance counters of a profile. They do not
// depend on voltage — or on which server runs the profile — so the lookup
// goes through the process-wide simulate memo (internal/simcache): one
// cache-hierarchy simulation per workload serves every server, worker,
// shard and daemon submission in the process.
func counters(p workloads.Profile) (microarch.Counters, error) {
	return simcache.Counters(p.Mix, p.Stream, simInstructions, simSeed)
}

// CountersCached reports whether p's counters are in the simulate memo or
// being simulated, without counting a memo hit or miss.
func CountersCached(p workloads.Profile) bool {
	return simcache.CountersCached(p.Mix, p.Stream, simInstructions, simSeed)
}

// SimulateCounters pays p's counter simulation into the simulate memo
// ahead of p's first run, on the caller's goroutine: the campaign engine
// simulates a grid's cold workloads side by side before its shards run.
// An invalid profile is refused as Run refuses it, and simulates nothing.
func SimulateCounters(p workloads.Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	_, err := counters(p)
	return err
}

// profileKey is a workload profile in comparable form: the Mix map
// flattened into a class-indexed array (a class listed at zero weighs
// exactly as an absent one in validation, simulation and mean current)
// and every other Profile field as is. Validity, counters and mean
// current are pure functions of it.
type profileKey struct {
	mix         [isa.NumClasses]float64
	name        string
	suite       workloads.Suite
	stream      microarch.StreamSpec
	mem         dram.WorkloadMem
	resonantA   float64
	cacheStress bool
	bandwidth   float64
	duration    time.Duration
}

// keyOf flattens p into its key in one pass over the Mix. ok is false when
// the Mix lists a class outside the instruction set; such a profile never
// validates and is never cached.
func keyOf(p workloads.Profile) (k profileKey, ok bool) {
	for c, f := range p.Mix {
		if !c.Valid() {
			return profileKey{}, false
		}
		k.mix[int(c)-int(isa.NOP)] = f
	}
	k.name = p.Name
	k.suite = p.Suite
	k.stream = p.Stream
	k.mem = p.Mem
	k.resonantA = p.ResonantCurrentA
	k.cacheStress = p.CacheStress
	k.bandwidth = p.DRAMBandwidthGBs
	k.duration = p.Duration
	return k, true
}

// preparedProfile holds the profile-invariant inputs of the last profile
// the server ran: it validated, and these are its counters and mean
// supply current. ok is false until the first run.
type preparedProfile struct {
	key      profileKey
	ok       bool
	counters microarch.Counters
	avgA     float64
}

// Run executes a workload at the current operating point and classifies
// the outcome. It returns an error only for invalid specs or if the server
// is down; hardware misbehaviour is reported through the outcome.
func (s *Server) Run(spec RunSpec) (RunResult, error) {
	if !s.booted {
		return RunResult{}, errors.New("xgene: server is down; reboot first")
	}
	// A campaign runs one profile many times in a row, so the server keeps
	// the last profile's validated inputs: a repeat costs one pass over
	// the Mix and a key comparison instead of the validation walk, the
	// simulate-memo lookup and the mean-current sum.
	key, keyed := keyOf(spec.Workload)
	prepared := keyed && s.prep.ok && s.prep.key == key
	if !prepared {
		if err := spec.Workload.Validate(); err != nil {
			return RunResult{}, err
		}
	}
	if err := validateCores(spec.Cores); err != nil {
		return RunResult{}, err
	}
	// The split label spells "run/<workload>/<seed>" exactly as the old
	// fmt.Sprintf did (the derived stream is pinned by the xrand label
	// equivalence tests), but hashes it incrementally: no string is built,
	// so the hottest line of the run path allocates nothing.
	runRng := s.rng.SplitLabel(runLabelPrefix.Str(spec.Workload.Name).Byte('/').Uint(spec.Seed))

	if !prepared {
		ctr, err := counters(spec.Workload)
		if err != nil {
			return RunResult{}, err
		}
		s.prep = preparedProfile{key: key, ok: true, counters: ctr, avgA: spec.Workload.AvgCurrentA()}
	}

	// Supply droop: workload features + run-to-run jitter (thermal state,
	// alignment of phases across cores). The input is the one
	// workloads.Profile.DroopInput builds, with the prepared mean current.
	droop := s.chip.DroopMV(silicon.DroopInput{
		AvgCurrentA:      s.prep.avgA,
		ResonantCurrentA: spec.Workload.ResonantCurrentA,
		ActiveFastCores:  s.activeFastCores(spec.Cores),
	}) + runRng.NormMS(0, 0.4)
	if droop < 0 {
		droop = 0
	}

	res := RunResult{
		Outcome:  OutcomeOK,
		DroopMV:  droop,
		Counters: s.prep.counters,
	}

	// Core-side failure evaluation: the worst mode across instances wins.
	worst := silicon.NoFailure
	for _, id := range spec.Cores {
		mode, err := s.chip.Evaluate(id, s.pmdFreqHz[id.PMD], s.pmdVoltage, droop, spec.Workload.CacheStress)
		if err != nil {
			return RunResult{}, err
		}
		if mode > worst {
			worst = mode
			res.FailingCore = id
		}
	}
	switch worst {
	case silicon.LogicFailure:
		// Timing violations take down the pipeline; most manifest as a
		// kernel panic / machine check (crash), some wedge the machine.
		if runRng.Float64() < 0.30 {
			res.Outcome = OutcomeHang
		} else {
			res.Outcome = OutcomeCrash
		}
		s.booted = false
	case silicon.CacheFailure:
		// SRAM bit flips: parity/ECC catches most (CE), some corrupt
		// clean data undetected (SDC), a few hit multi-bit words (UE).
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

	// DRAM-side errors: skip the cell-level scan when the analytic bound
	// says nothing can manifest (every CPU campaign at nominal refresh).
	var scan *dram.ScanResult
	if s.mem.ExpectedFailureUpperBound(s.trefp) >= 0.01 {
		var err error
		scan, err = s.mem.ScanWorkload(spec.Workload.Mem, s.trefp, spec.Seed)
		if err != nil {
			return RunResult{}, err
		}
		res.DRAMCE, res.DRAMUE, res.DRAMSDC = scan.CE, scan.UE, scan.SDC
		res.Outcome = worseOutcome(res.Outcome, dramOutcome(scan))
	}

	// Power sensors and run duration at the configured clocks.
	var load power.CoreLoad
	for i := range load.CurrentA {
		load.CurrentA[i] = power.IdleCoreCurrentA
	}
	var perfSum float64
	for _, id := range spec.Cores {
		fRatio := s.pmdFreqHz[id.PMD] / silicon.NominalFreqHz
		load.CurrentA[id.Index()] = s.prep.avgA
		perfSum += fRatio
	}
	for i := range load.PMDFreqHz {
		load.PMDFreqHz[i] = s.pmdFreqHz[i]
	}
	res.PerfRatio = perfSum / float64(len(spec.Cores))
	bw := spec.Workload.DRAMBandwidthGBs * float64(len(spec.Cores)) / float64(silicon.NumCores) * res.PerfRatio
	pw, err := power.Server(s.chip, s.OperatingPoint(), load, bw)
	if err != nil {
		return RunResult{}, err
	}
	res.Power = pw

	// Duration: nominal duration stretched by the slowest instance.
	slowest := 1.0
	for _, id := range spec.Cores {
		if r := s.pmdFreqHz[id.PMD] / silicon.NominalFreqHz; 1/r > slowest {
			slowest = 1 / r
		}
	}
	res.Duration = time.Duration(float64(spec.Workload.Duration) * slowest)
	return res, nil
}

// dramOutcome maps a scan's ECC classification to a run outcome.
func dramOutcome(scan *dram.ScanResult) Outcome {
	switch {
	case scan.SDC > 0:
		return OutcomeSDC
	case scan.UE > 0:
		return OutcomeUE
	case scan.CE > 0:
		return OutcomeCE
	default:
		return OutcomeOK
	}
}

// worseOutcome returns the higher-severity of two outcomes.
func worseOutcome(a, b Outcome) Outcome {
	if b.Severity() > a.Severity() {
		return b
	}
	return a
}
