package viruses

import (
	"fmt"
	"time"

	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/microarch"
	"repro/internal/workloads"
)

// CacheLevel selects the target of a cache virus.
type CacheLevel int

const (
	// L1I targets the instruction cache (huge code footprint, hot loop
	// bodies spread across sets).
	L1I CacheLevel = iota + 1
	// L1D targets the data cache.
	L1D
	// L2 targets the per-PMD unified L2.
	L2
	// L3 targets the shared 8 MB L3.
	L3
)

// String names the level.
func (l CacheLevel) String() string {
	switch l {
	case L1I:
		return "L1I"
	case L1D:
		return "L1D"
	case L2:
		return "L2"
	case L3:
		return "L3"
	default:
		return fmt.Sprintf("CacheLevel(%d)", int(l))
	}
}

// CacheVirus builds a synthetic workload profile that pins stress on one
// cache level: its footprint sits just inside the target level (so the
// target's arrays are continuously exercised at low voltage), with a
// pointer-chase access pattern that defeats prefetching. These are the
// Section III.C kernels used to attribute failures to cache arrays.
func CacheVirus(level CacheLevel) (workloads.Profile, error) {
	var footprint int64
	var name string
	switch level {
	case L1I:
		name, footprint = "virus-l1i", 24<<10
	case L1D:
		name, footprint = "virus-l1d", 24<<10
	case L2:
		name, footprint = "virus-l2", 192<<10
	case L3:
		name, footprint = "virus-l3", 6<<20
	default:
		return workloads.Profile{}, fmt.Errorf("viruses: unknown cache level %d", int(level))
	}
	mix := isa.Mix{
		isa.LoadL1: 0.55,
		isa.Store:  0.25,
		isa.IntALU: 0.15,
		isa.Branch: 0.05,
	}
	stream := microarch.StreamSpec{FootprintBytes: footprint, RandomFrac: 1}
	if level == L1I {
		// The I-cache virus is branch/code-footprint heavy: a 96 KB body
		// of straight-line code with frequent cross-jumps thrashes the
		// 32 KB L1I while its data side stays tiny.
		mix = isa.Mix{
			isa.Branch: 0.40,
			isa.IntALU: 0.40,
			isa.LoadL1: 0.20,
		}
		stream = microarch.StreamSpec{
			FootprintBytes:     footprint,
			SeqFrac:            1,
			CodeFootprintBytes: 96 << 10,
		}
	}
	return workloads.Profile{
		Name:   name,
		Suite:  workloads.Synthetic,
		Mix:    mix,
		Stream: stream,
		Mem: dram.WorkloadMem{
			FootprintBytes: 8 << 20,
			HotFraction:    1,
			ReuseInterval:  time.Millisecond,
			RandomDataFrac: 1,
		},
		ResonantCurrentA: 0.05,
		CacheStress:      true,
		DRAMBandwidthGBs: 0.5,
		Duration:         20 * time.Second,
	}, nil
}

// ALUVirus builds a dependency-free execution-unit burn loop profile:
// intFP selects integer ("int") or floating-point ("fp") units. ALU
// viruses do not stress cache arrays, so their undervolting failures are
// logic-timing crashes — the discriminator for cache-vs-pipeline failure
// attribution.
func ALUVirus(kind string) (workloads.Profile, error) {
	var mix isa.Mix
	var name string
	switch kind {
	case "int":
		// Calibrated to draw roughly the same average current as the
		// cache viruses (~3.2 A), so a cache-vs-logic Vmin comparison
		// isolates the failing structure instead of the droop difference.
		name = "virus-int-alu"
		mix = isa.Mix{isa.IntALU: 0.60, isa.IntMul: 0.20, isa.NOP: 0.18, isa.Branch: 0.02}
	case "fp":
		name = "virus-fp-alu"
		mix = isa.Mix{isa.FPSIMD: 0.60, isa.FPALU: 0.38, isa.Branch: 0.02}
	default:
		return workloads.Profile{}, fmt.Errorf("viruses: unknown ALU virus kind %q", kind)
	}
	return workloads.Profile{
		Name:   name,
		Suite:  workloads.Synthetic,
		Mix:    mix,
		Stream: microarch.StreamSpec{FootprintBytes: 4 << 10, SeqFrac: 1},
		Mem: dram.WorkloadMem{
			FootprintBytes: 1 << 20,
			HotFraction:    1,
			ReuseInterval:  time.Millisecond,
			RandomDataFrac: 0,
		},
		ResonantCurrentA: 0.05,
		CacheStress:      false,
		DRAMBandwidthGBs: 0.1,
		Duration:         20 * time.Second,
	}, nil
}
