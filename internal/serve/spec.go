package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/workloads"
)

// Strategies a spec can request.
const (
	// StrategyExhaustive walks the explicit VoltagesMV grid uniformly —
	// campaign.RunGrid, the default.
	StrategyExhaustive = "exhaustive"
	// StrategyAdaptive runs the coarse-to-fine Vmin scheduler
	// (campaign.RunSchedule): descend from StartMV toward FloorMV, bracket
	// the failure transition with CoarseStepMV strides, then bisect to
	// ResolutionMV.
	StrategyAdaptive = "adaptive"
)

// Spec is the wire form of a characterization submission: which board(s) to
// fabricate, which cells to run (or which Vmin search to schedule), and how
// hard to parallelize. It maps one-to-one onto campaign.Grid or
// campaign.Schedule plus campaign.Config, so anything the daemon measures
// can be reproduced offline with the same spec.
//
// Validation here is about shape (names resolve, the grid is non-empty,
// strategy-specific fields appear only under their strategy); physical
// validity of the resulting setups is the framework's job at run time, so a
// submission with, say, a non-positive voltage is accepted, scheduled, and
// fails as a campaign — the same way a bad setup fails on the bench.
type Spec struct {
	// Name labels the grid. It prefixes shard names and therefore keys the
	// derived run seeds: two specs that differ only in Name are distinct
	// characterizations. Defaults to "grid".
	Name string `json:"name,omitempty"`
	// Corner picks the chip's process corner: TTT (default), TFF or TSS.
	Corner string `json:"corner,omitempty"`
	// BoardSeed overrides the board fabrication seed; zero means "the
	// campaign seed", as everywhere in the campaign engine.
	BoardSeed uint64 `json:"board_seed,omitempty"`
	// Seed is the campaign seed. Required nonzero (campaign.Config.Validate).
	Seed uint64 `json:"seed"`
	// Core places the benchmark: "robust" (default), "weakest", or an
	// explicit "pmdP.cC" id. Resolved against the spec's board, which is a
	// pure function of (corner, board seed), so the placement is as
	// deterministic as everything else in the fingerprint.
	Core string `json:"core,omitempty"`
	// Benches are workload profile names (see internal/workloads).
	Benches []string `json:"benches"`
	// VoltagesMV spans the setup axis: one nominal-clock setup per PMD
	// voltage, in millivolts.
	VoltagesMV []float64 `json:"voltages_mv"`
	// TREFPMillis overrides the DRAM refresh period (milliseconds); zero
	// means the nominal 64 ms.
	TREFPMillis float64 `json:"trefp_ms,omitempty"`
	// Repetitions per grid cell / voltage level (the paper runs ten).
	Repetitions int `json:"repetitions"`
	// Strategy selects the scheduler: "exhaustive" (default) or
	// "adaptive". Exhaustive specs span the setup axis with VoltagesMV;
	// adaptive specs span it with StartMV..FloorMV instead and must leave
	// VoltagesMV empty (and vice versa), so two specs that request the
	// same work are never spelled two ways.
	Strategy string `json:"strategy,omitempty"`
	// Boards is the fleet size per cell/search: each shard batches this
	// many distinct-seed boards of the spec's corner (board 0 keeps the
	// board seed; see campaign.FleetBoardSeed). Zero means 1.
	Boards int `json:"boards,omitempty"`
	// StartMV is the adaptive descent start voltage (millivolts); zero
	// means nominal. Adaptive-only.
	StartMV float64 `json:"start_mv,omitempty"`
	// FloorMV stops the adaptive descent; zero means 700. Adaptive-only.
	FloorMV float64 `json:"floor_mv,omitempty"`
	// CoarseStepMV is the adaptive coarse-pass stride; zero means 40. Must
	// be an integer multiple of ResolutionMV. Adaptive-only.
	CoarseStepMV float64 `json:"coarse_step_mv,omitempty"`
	// ResolutionMV is the adaptive final resolution; zero means the
	// paper's 5. Adaptive-only.
	ResolutionMV float64 `json:"resolution_mv,omitempty"`
	// MaxRuns bounds executed runs per (benchmark, board) search; zero
	// means unbounded. Adaptive-only.
	MaxRuns int `json:"max_runs,omitempty"`
	// CrossSeed seeds each fleet board's coarse pass from its sibling's
	// already-found Vmin (campaign.Schedule.CrossSeed): same SafeVmin
	// whenever the failure transition is monotone (the physical
	// expectation, pinned per corner by the golden tests), fewer coarse
	// levels executed. The executed run set (and so the record stream)
	// differs, which is why it is part of the fingerprint. Adaptive-only,
	// and requires Boards > 1 — on a single board it would be a no-op
	// spelling that still split the cache key.
	CrossSeed bool `json:"cross_seed,omitempty"`
	// Workers is the campaign worker count (0 = one per CPU). Excluded
	// from the fingerprint: the engine's determinism contract guarantees
	// the worker count never changes results, so two submissions differing
	// only in Workers are the same characterization.
	Workers int `json:"workers,omitempty"`
}

// withDefaults fills the documented defaults.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "grid"
	}
	if s.Corner == "" {
		s.Corner = silicon.TTT.String()
	}
	if s.Core == "" {
		s.Core = "robust"
	}
	if s.Strategy == "" {
		s.Strategy = StrategyExhaustive
	}
	if s.Strategy == StrategyAdaptive {
		if s.StartMV == 0 {
			s.StartMV = silicon.NominalVoltage * 1000
		}
		if s.FloorMV == 0 {
			s.FloorMV = 700
		}
		if s.CoarseStepMV == 0 {
			s.CoarseStepMV = 40
		}
		if s.ResolutionMV == 0 {
			s.ResolutionMV = 5
		}
	}
	return s
}

// corner resolves the Corner field.
func (s Spec) corner() (silicon.Corner, error) {
	for _, c := range silicon.Corners() {
		if c.String() == s.Corner {
			return c, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown corner %q (TTT, TFF or TSS)", s.Corner)
}

// Validate reports shape errors in the spec. Call on the defaulted spec;
// the Server defaults-then-validates every submission.
func (s Spec) Validate() error {
	if err := (campaign.Config{Seed: s.Seed}).Validate(); err != nil {
		return err
	}
	if _, err := s.corner(); err != nil {
		return err
	}
	if len(s.Benches) == 0 {
		return errors.New("serve: spec needs at least one benchmark")
	}
	for _, name := range s.Benches {
		if _, err := workloads.ByName(name); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	switch s.Strategy {
	case "", StrategyExhaustive:
		if len(s.VoltagesMV) == 0 {
			return errors.New("serve: spec needs at least one voltage")
		}
		// One spelling per characterization: adaptive knobs on an
		// exhaustive spec would be dead weight that still changed the
		// fingerprint, so they are rejected outright.
		if s.StartMV != 0 || s.FloorMV != 0 || s.CoarseStepMV != 0 || s.ResolutionMV != 0 || s.MaxRuns != 0 || s.CrossSeed {
			return errors.New("serve: start_mv/floor_mv/coarse_step_mv/resolution_mv/max_runs/cross_seed are adaptive-only")
		}
	case StrategyAdaptive:
		if len(s.VoltagesMV) != 0 {
			return errors.New("serve: voltages_mv is exhaustive-only; adaptive specs span start_mv..floor_mv")
		}
		if s.ResolutionMV <= 0 {
			return errors.New("serve: adaptive resolution must be positive")
		}
		if s.CoarseStepMV < s.ResolutionMV {
			return errors.New("serve: coarse step must be at least the resolution")
		}
		if m := int(s.CoarseStepMV/s.ResolutionMV + 0.5); !nearlyEqualMV(float64(m)*s.ResolutionMV, s.CoarseStepMV) {
			return fmt.Errorf("serve: coarse step %g mV is not an integer multiple of resolution %g mV", s.CoarseStepMV, s.ResolutionMV)
		}
		if s.FloorMV <= 0 || s.FloorMV >= s.StartMV {
			return errors.New("serve: adaptive floor must sit below the start voltage")
		}
		if s.MaxRuns < 0 {
			return errors.New("serve: negative run budget")
		}
		// cross_seed with no sibling boards is a semantic no-op that would
		// still split the cache key — same "one spelling per
		// characterization" rule as the strategy-exclusive fields.
		if s.CrossSeed && s.Boards <= 1 {
			return errors.New("serve: cross_seed needs a fleet (boards > 1)")
		}
	default:
		return fmt.Errorf("serve: unknown strategy %q (exhaustive or adaptive)", s.Strategy)
	}
	if s.Boards < 0 {
		return errors.New("serve: negative board count")
	}
	if s.Repetitions <= 0 {
		return errors.New("serve: repetitions must be positive")
	}
	if s.TREFPMillis < 0 {
		return errors.New("serve: negative TREFP")
	}
	switch s.Core {
	case "robust", "weakest":
	default:
		var p, c int
		// Sscanf ignores trailing text, so round-trip the parse to reject
		// selectors like "pmd1.c2,junk" outright.
		n, err := fmt.Sscanf(s.Core, "pmd%d.c%d", &p, &c)
		if n != 2 || err != nil || fmt.Sprintf("pmd%d.c%d", p, c) != s.Core {
			return fmt.Errorf("serve: bad core selector %q (robust, weakest or pmdP.cC)", s.Core)
		}
		if !(silicon.CoreID{PMD: p, Core: c}).Valid() {
			return fmt.Errorf("serve: core %s out of range", s.Core)
		}
	}
	return nil
}

// nearlyEqualMV absorbs float drift on the millivolt grid.
func nearlyEqualMV(a, b float64) bool { d := a - b; return d < 1e-6 && d > -1e-6 }

// Fingerprint is the characterization cache key: a stable hash of every
// spec field that can change results — name, corner, board seed, campaign
// seed, core placement, refresh period, benches, repetitions, strategy,
// fleet size, and the strategy's own axis (voltages for exhaustive, the
// descent parameters for adaptive). Workers is deliberately excluded (see
// the field doc): the cache treats any worker count as the same campaign.
// Semantically identical spellings hash identically (defaults applied,
// board seed 0 resolved, boards 0 == 1); an exhaustive and an adaptive
// submission can never collide because the strategy itself is hashed.
func (s Spec) Fingerprint() string {
	s = s.withDefaults()
	// BoardSeed 0 means "the campaign seed" (resolved in Grid), so the
	// explicit and implicit spellings of the same board hash identically.
	if s.BoardSeed == 0 {
		s.BoardSeed = s.Seed
	}
	if s.Boards == 0 {
		s.Boards = 1
	}
	h := sha256.New()
	// Free-form strings (name, bench names) are length-prefixed and the
	// lists are count-prefixed, so the hash input parses unambiguously: no
	// crafted name or bench string can impersonate another spec's field or
	// list boundary.
	fmt.Fprintf(h, "%d:%s\x00%s\x00%d\x00%d\x00%s\x00%g\x00%d\x00%s\x00%d\x00",
		len(s.Name), s.Name, s.Corner, s.BoardSeed, s.Seed, s.Core, s.TREFPMillis,
		s.Repetitions, s.Strategy, s.Boards)
	fmt.Fprintf(h, "nb:%d\x00", len(s.Benches))
	for _, b := range s.Benches {
		fmt.Fprintf(h, "b:%d:%s\x00", len(b), b)
	}
	fmt.Fprintf(h, "nv:%d\x00", len(s.VoltagesMV))
	for _, v := range s.VoltagesMV {
		fmt.Fprintf(h, "v:%g\x00", v)
	}
	if s.Strategy == StrategyAdaptive {
		fmt.Fprintf(h, "a:%g\x00%g\x00%g\x00%g\x00%d\x00%t\x00",
			s.StartMV, s.FloorMV, s.CoarseStepMV, s.ResolutionMV, s.MaxRuns, s.CrossSeed)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resolve validates the defaulted spec and materializes its common parts:
// the corner, the placed core, and the benchmark profiles. A named core
// ("robust", "weakest") is resolved on the board's die alone, fetched from
// the silicon fab pool: die fabrication is a pure function of (corner,
// seed), so the id resolved here is the id every shard's server sees, and
// no server or DRAM fabric is built for it.
func (s Spec) resolve() (silicon.Corner, silicon.CoreID, []workloads.Profile, error) {
	if err := s.Validate(); err != nil {
		return 0, silicon.CoreID{}, nil, err
	}
	corner, err := s.corner()
	if err != nil {
		return 0, silicon.CoreID{}, nil, err
	}
	benches := make([]workloads.Profile, 0, len(s.Benches))
	for _, name := range s.Benches {
		p, err := workloads.ByName(name)
		if err != nil {
			return 0, silicon.CoreID{}, nil, fmt.Errorf("serve: %w", err)
		}
		benches = append(benches, p)
	}
	boardSeed := s.BoardSeed
	if boardSeed == 0 {
		boardSeed = s.Seed
	}
	chip, err := silicon.Fab(corner, boardSeed)
	if err != nil {
		return 0, silicon.CoreID{}, nil, fmt.Errorf("serve: fab die: %w", err)
	}
	var coreID silicon.CoreID
	switch s.Core {
	case "robust":
		coreID = chip.MostRobustCore()
	case "weakest":
		coreID = chip.WeakestCore()
	default:
		fmt.Sscanf(s.Core, "pmd%d.c%d", &coreID.PMD, &coreID.Core)
	}
	return corner, coreID, benches, nil
}

// setup builds the spec's base operating point on the resolved core.
func (s Spec) setup(coreID silicon.CoreID) core.Setup {
	setup := core.NominalSetup(coreID)
	if s.TREFPMillis > 0 {
		setup.TREFP = time.Duration(s.TREFPMillis * float64(time.Millisecond))
	}
	return setup
}

// Grid materializes an exhaustive spec into the campaign engine's grid
// form, applying defaults first. The daemon runs exactly this grid; offline
// reproduction is campaign.RunGrid(campaign.Config{Seed: spec.Seed},
// grid) with any worker count.
func (s Spec) Grid() (campaign.Grid, error) {
	s = s.withDefaults()
	if s.Strategy != StrategyExhaustive {
		return campaign.Grid{}, fmt.Errorf("serve: Grid on a %q spec (use Schedule)", s.Strategy)
	}
	corner, coreID, benches, err := s.resolve()
	if err != nil {
		return campaign.Grid{}, err
	}
	setups := make([]core.Setup, 0, len(s.VoltagesMV))
	for _, mv := range s.VoltagesMV {
		setup := s.setup(coreID)
		setup.PMDVoltage = mv / 1000
		setups = append(setups, setup)
	}
	return campaign.Grid{
		Name:        s.Name,
		Board:       campaign.Board{Corner: corner, Seed: s.BoardSeed},
		Benches:     benches,
		Setups:      setups,
		Repetitions: s.Repetitions,
		Boards:      s.Boards,
	}, nil
}

// Schedule materializes an adaptive spec into the campaign engine's
// schedule form, applying defaults first. Offline reproduction is
// campaign.RunSchedule(campaign.Config{Seed: spec.Seed}, schedule) with any
// worker count.
func (s Spec) Schedule() (campaign.Schedule, error) {
	s = s.withDefaults()
	if s.Strategy != StrategyAdaptive {
		return campaign.Schedule{}, fmt.Errorf("serve: Schedule on a %q spec (use Grid)", s.Strategy)
	}
	corner, coreID, benches, err := s.resolve()
	if err != nil {
		return campaign.Schedule{}, err
	}
	setup := s.setup(coreID)
	setup.PMDVoltage = s.StartMV / 1000
	return campaign.Schedule{
		Name:        s.Name,
		Board:       campaign.Board{Corner: corner, Seed: s.BoardSeed},
		Boards:      s.Boards,
		Benches:     benches,
		Setup:       setup,
		FloorV:      s.FloorMV / 1000,
		CoarseStepV: s.CoarseStepMV / 1000,
		ResolutionV: s.ResolutionMV / 1000,
		Repetitions: s.Repetitions,
		MaxRuns:     s.MaxRuns,
		CrossSeed:   s.CrossSeed,
	}, nil
}
