// Package xgene assembles the full X-Gene2 micro-server model: one silicon
// die (4 PMDs x 2 ARMv8 cores behind the central switch), the DDR3 memory
// system, the power-delivery network, an EM probe over the package, and
// the SLIMpro management processor's configuration/telemetry surface
// (voltage rails, per-PMD clocks, MCU refresh period, power sensors, ECC
// error reports).
//
// The characterization framework in internal/core drives a Server only
// through this surface, exactly as the paper's framework drove the real
// board through SLIMpro: it sets an operating point, launches a run, and
// observes the outcome (clean, corrected/uncorrected errors, silent data
// corruption via golden-output comparison, crash or hang).
package xgene

import (
	"fmt"
	"time"

	"repro/internal/dram"
	"repro/internal/em"
	"repro/internal/power"
	"repro/internal/silicon"
	"repro/internal/xrand"
)

// Rail voltage limits enforced by the SLIMpro firmware.
const (
	MinRailV = 0.70
	MaxRailV = 1.05
)

// Server is one modelled X-Gene2 board.
type Server struct {
	chip *silicon.Chip
	mem  *dram.Module

	pmdVoltage float64
	socVoltage float64
	pmdFreqHz  [silicon.NumPMDs]float64
	trefp      time.Duration

	probe *em.Probe
	rng   *xrand.Stream

	// booted tracks whether the server is up; a crash requires a reboot
	// through the board's reset/power switches before new runs.
	booted bool
	boots  int

	// events is the SLIMpro telemetry ring buffer (see slimpro.go).
	events []Event

	// prep is the last profile Run prepared (see run.go).
	prep preparedProfile
}

// Options tunes server construction.
type Options struct {
	// Corner selects the chip's process corner (default TTT).
	Corner silicon.Corner
	// Seed drives all stochastic state (chip fab, DRAM fab, measurement
	// noise, failure-mode draws).
	Seed uint64
	// DRAMConfig overrides the default 32 GB memory system when non-nil.
	DRAMConfig *dram.Config
	// DisableResonance zeroes the chip's resonant droop coupling — the
	// ablation of DESIGN.md decision 2: without the PDN resonance
	// mechanism, the dI/dt virus search degenerates to a max-average-power
	// loop with visibly lower droop.
	DisableResonance bool
}

// NewServer builds a booted server at the nominal operating point.
func NewServer(opts Options) (*Server, error) {
	if opts.Corner == 0 {
		opts.Corner = silicon.TTT
	}
	chip, err := silicon.Fab(opts.Corner, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("xgene: fab chip: %w", err)
	}
	if opts.DisableResonance {
		chip.ResCoupleMV = 0
	}
	cfg := dram.DefaultConfig()
	if opts.DRAMConfig != nil {
		cfg = *opts.DRAMConfig
	}
	mem, err := dram.NewModule(cfg, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("xgene: fab DRAM: %w", err)
	}
	s := &Server{
		chip:       chip,
		mem:        mem,
		pmdVoltage: silicon.NominalVoltage,
		socVoltage: silicon.NominalVoltage,
		trefp:      cfg.NominalTREFP,
		probe:      em.NewProbe(opts.Seed),
		rng:        xrand.New(opts.Seed).Split("xgene/server"),
		booted:     true,
		boots:      1,
	}
	for i := range s.pmdFreqHz {
		s.pmdFreqHz[i] = silicon.NominalFreqHz
	}
	return s, nil
}

// Chip exposes the fabricated die (used by reporting; the characterization
// flow itself never reads thresholds from it).
func (s *Server) Chip() *silicon.Chip { return s.chip }

// DRAM exposes the memory system model.
func (s *Server) DRAM() *dram.Module { return s.mem }

// SetPMDVoltage sets the shared PMD-domain rail.
func (s *Server) SetPMDVoltage(v float64) error {
	if v < MinRailV || v > MaxRailV {
		return fmt.Errorf("xgene: PMD rail %v V outside [%v, %v]", v, MinRailV, MaxRailV)
	}
	s.pmdVoltage = v
	return nil
}

// SetSoCVoltage sets the SoC (uncore) rail.
func (s *Server) SetSoCVoltage(v float64) error {
	if v < MinRailV || v > MaxRailV {
		return fmt.Errorf("xgene: SoC rail %v V outside [%v, %v]", v, MinRailV, MaxRailV)
	}
	s.socVoltage = v
	return nil
}

// SetPMDFreq sets one module's clock (SLIMpro supports per-PMD DVFS).
func (s *Server) SetPMDFreq(pmd int, hz float64) error {
	if pmd < 0 || pmd >= silicon.NumPMDs {
		return fmt.Errorf("xgene: PMD %d out of range", pmd)
	}
	if hz < 300e6 || hz > 2.4e9 {
		return fmt.Errorf("xgene: PMD clock %v Hz unsupported", hz)
	}
	s.pmdFreqHz[pmd] = hz
	return nil
}

// SetTREFP configures the MCUs' refresh period.
func (s *Server) SetTREFP(d time.Duration) error {
	if d < time.Millisecond || d > time.Minute {
		return fmt.Errorf("xgene: TREFP %v unsupported", d)
	}
	s.trefp = d
	return nil
}

// PMDVoltage returns the current PMD rail setting.
func (s *Server) PMDVoltage() float64 { return s.pmdVoltage }

// SoCVoltage returns the current SoC rail setting.
func (s *Server) SoCVoltage() float64 { return s.socVoltage }

// PMDFreq returns one module's clock.
func (s *Server) PMDFreq(pmd int) (float64, error) {
	if pmd < 0 || pmd >= silicon.NumPMDs {
		return 0, fmt.Errorf("xgene: PMD %d out of range", pmd)
	}
	return s.pmdFreqHz[pmd], nil
}

// TREFP returns the configured refresh period.
func (s *Server) TREFP() time.Duration { return s.trefp }

// OperatingPoint returns the power-model view of the current settings.
func (s *Server) OperatingPoint() power.OperatingPoint {
	return power.OperatingPoint{
		PMDVoltage: s.pmdVoltage,
		SoCVoltage: s.socVoltage,
		TREFP:      s.trefp,
	}
}

// Booted reports whether the OS is up.
func (s *Server) Booted() bool { return s.booted }

// BootCount returns how many times the board has booted (initial boot
// included) — the framework's reset/power switches increment it.
func (s *Server) BootCount() int { return s.boots }

// Reboot models the board reset switch: it restores nominal rails and
// clocks (firmware defaults) and boots the OS. It returns the simulated
// boot time the framework must wait.
func (s *Server) Reboot() time.Duration {
	s.pmdVoltage = silicon.NominalVoltage
	s.socVoltage = silicon.NominalVoltage
	for i := range s.pmdFreqHz {
		s.pmdFreqHz[i] = silicon.NominalFreqHz
	}
	s.booted = true
	s.boots++
	return 90 * time.Second
}

// SetDIMMTemp forwards to the memory model (driven by the thermal testbed).
func (s *Server) SetDIMMTemp(dimm int, tempC float64) error {
	return s.mem.SetDIMMTemp(dimm, tempC)
}

// SetAllDIMMTemps sets every DIMM temperature.
func (s *Server) SetAllDIMMTemps(tempC float64) error {
	return s.mem.SetAllTemps(tempC)
}
