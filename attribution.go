package guardband

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/silicon"
	"repro/internal/viruses"
)

// Section III of the paper crafts synthetic programs that isolate either
// the cache arrays or the pipeline logic, so that an undervolting failure
// can be attributed to the component that broke. This driver reproduces
// that methodology: a cache virus (huge SRAM activity) exposes the SRAM
// failure voltage with CE/SDC/UE outcomes, while an ALU virus (no cache
// stress) sails past it and crashes only at the logic-timing threshold.

// CoreAttribution is the failure-origin analysis of one core.
type CoreAttribution struct {
	Core string
	// CacheVminMV is the safe Vmin under the L1D cache virus (first
	// failures are SRAM bit flips).
	CacheVminMV float64
	// LogicVminMV is the safe Vmin under the FP ALU virus (first failure
	// is a pipeline crash).
	LogicVminMV float64
	// SRAMLeadMV is CacheVmin - LogicVmin: how much earlier the SRAM gives
	// up as voltage descends. Non-negative on every core of the model.
	SRAMLeadMV float64
	// CacheOutcomes lists what the cache virus produced at its failure
	// voltage (CE/SDC/UE — never a clean crash first).
	CacheOutcomes map[string]int
	// LogicOutcomes lists the ALU virus's failure modes (crash/hang only).
	LogicOutcomes map[string]int
}

// AttributionResult covers a set of cores.
type AttributionResult struct {
	Cores []CoreAttribution
}

// AttributeFailures runs the cache-vs-pipeline isolation flow on the given
// cores of a fresh TTT board (all eight when cores is empty).
func AttributeFailures(seed uint64, repetitions int, cores ...silicon.CoreID) (AttributionResult, error) {
	srv, err := NewServer(TTT, seed)
	if err != nil {
		return AttributionResult{}, err
	}
	fw, err := NewFramework(srv)
	if err != nil {
		return AttributionResult{}, err
	}
	if len(cores) == 0 {
		cores = silicon.AllCores()
	}
	cacheVirus, err := viruses.CacheVirus(viruses.L1D)
	if err != nil {
		return AttributionResult{}, err
	}
	// The integer ALU virus is power-matched to the cache virus (~3.2 A),
	// so the Vmin difference between the two isolates WHICH structure
	// fails rather than how hard each loop droops the rail.
	aluVirus, err := viruses.ALUVirus("int")
	if err != nil {
		return AttributionResult{}, err
	}

	var out AttributionResult
	for _, id := range cores {
		search := func(p Profile) (float64, map[string]int, error) {
			cfg := core.DefaultVminConfig(p, core.NominalSetup(id))
			cfg.Repetitions = repetitions
			cfg.Seed = seed
			// Component isolation needs a descent finer than the 2-5 mV
			// SRAM lead band, or a 5 mV step can jump straight from the
			// safe region into logic failure.
			cfg.StepV = 0.001
			res, err := fw.VminSearch(cfg)
			if err != nil {
				return 0, nil, err
			}
			modes := make(map[string]int, len(res.FailureOutcomes))
			for o, n := range res.FailureOutcomes {
				modes[o.String()] = n
			}
			return res.SafeVminV * 1000, modes, nil
		}
		cacheV, cacheModes, err := search(cacheVirus)
		if err != nil {
			return out, fmt.Errorf("guardband: attribute %v cache: %w", id, err)
		}
		logicV, logicModes, err := search(aluVirus)
		if err != nil {
			return out, fmt.Errorf("guardband: attribute %v logic: %w", id, err)
		}
		out.Cores = append(out.Cores, CoreAttribution{
			Core:          id.String(),
			CacheVminMV:   cacheV,
			LogicVminMV:   logicV,
			SRAMLeadMV:    cacheV - logicV,
			CacheOutcomes: cacheModes,
			LogicOutcomes: logicModes,
		})
	}
	return out, nil
}

// Table renders the per-core attribution.
func (r AttributionResult) Table() *report.Table {
	t := report.NewTable("Cache vs pipeline failure attribution (Section III)",
		"core", "cache-virus Vmin", "ALU-virus Vmin", "SRAM lead", "cache modes", "logic modes")
	for _, c := range r.Cores {
		t.AddRowf(c.Core,
			fmt.Sprintf("%.0fmV", c.CacheVminMV),
			fmt.Sprintf("%.0fmV", c.LogicVminMV),
			fmt.Sprintf("%.0fmV", c.SRAMLeadMV),
			fmtModes(c.CacheOutcomes),
			fmtModes(c.LogicOutcomes))
	}
	return t
}

func fmtModes(m map[string]int) string {
	// Fixed order for stable output.
	s := ""
	for _, k := range []string{"OK", "CE", "UE", "SDC", "crash", "hang"} {
		if n, ok := m[k]; ok {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s x%d", k, n)
		}
	}
	return s
}
