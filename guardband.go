// Package guardband is the public API of the X-Gene2 guardband study
// reproduction (Tovletoglou et al., "Measuring and Exploiting Guardbands of
// Server-Grade ARMv8 CPU Cores and DRAMs", DSN 2018).
//
// It wires the simulated substrate (silicon corners, PDN, DRAM retention,
// thermal testbed, EM probe) to the characterization framework and exposes
// one driver per figure/table of the paper's evaluation, plus the building
// blocks (server construction, Vmin searches, virus crafting) that the
// examples and command-line tools compose.
//
// Quick start:
//
//	srv, _ := guardband.NewServer(guardband.TTT, 1)
//	fw, _ := guardband.NewFramework(srv)
//	mcf, _ := guardband.Workload("mcf")
//	res, _ := fw.VminSearch(core.DefaultVminConfig(mcf,
//	    core.NominalSetup(srv.Chip().MostRobustCore())))
//	fmt.Printf("safe Vmin: %.0f mV\n", res.SafeVminV*1000)
package guardband

import (
	"time"

	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

// Corner re-exports the process-corner type of the silicon model.
type Corner = silicon.Corner

// Process corners of the characterized chip population.
const (
	// TTT is the typical production part.
	TTT = silicon.TTT
	// TFF is the fast / high-leakage sigma part.
	TFF = silicon.TFF
	// TSS is the slow / low-leakage sigma part.
	TSS = silicon.TSS
)

// Operating-point constants of the platform.
const (
	// NominalVoltage is the manufacturer core-rail setting (volts).
	NominalVoltage = silicon.NominalVoltage
	// NominalFreqHz is the shipped 2.4 GHz core clock.
	NominalFreqHz = silicon.NominalFreqHz
	// NominalTREFP is the manufacturer DRAM refresh period.
	NominalTREFP = 64 * time.Millisecond
	// RelaxedTREFP is the paper's 35x-relaxed refresh period.
	RelaxedTREFP = 2283 * time.Millisecond
)

// Server is the modelled X-Gene2 board (see internal/xgene for the full
// SLIMpro-style surface).
type Server = xgene.Server

// Framework is the characterization framework (see internal/core).
type Framework = core.Framework

// Profile is a benchmark behavioural profile (see internal/workloads).
type Profile = workloads.Profile

// NewServer fabricates a server with a chip of the given corner. The seed
// fixes all stochastic state; the same (corner, seed) is the same board.
func NewServer(corner Corner, seed uint64) (*Server, error) {
	return xgene.NewServer(xgene.Options{Corner: corner, Seed: seed})
}

// NewFramework wraps a server with the characterization framework.
func NewFramework(srv *Server) (*Framework, error) {
	return core.NewFramework(srv)
}

// Workload looks up a benchmark profile by name.
func Workload(name string) (Profile, error) {
	return workloads.ByName(name)
}
