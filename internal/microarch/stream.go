package microarch

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/xrand"
)

// StreamSpec describes a workload's memory-access locality: a mixture of
// sequential streaming, fixed-stride walks and random accesses over a
// footprint, with an optional hot subset that concentrates reuse.
type StreamSpec struct {
	// FootprintBytes is the addressable data size.
	FootprintBytes int64
	// SeqFrac, StrideFrac and RandomFrac partition the accesses
	// (must sum to ~1).
	SeqFrac, StrideFrac, RandomFrac float64
	// StrideBytes is the stride of the strided component.
	StrideBytes int64
	// HotFrac is the probability an access targets the hot subset.
	HotFrac float64
	// HotBytes is the size of the hot subset.
	HotBytes int64
	// CodeFootprintBytes is the instruction-side footprint fetched through
	// the L1I cache. Zero means a small loop body (defaultCodeFootprint);
	// the L1I virus sets it far above the 32 KB L1I capacity.
	CodeFootprintBytes int64
}

// defaultCodeFootprint is the code size assumed for profiles that do not
// specify one: a hot kernel comfortably resident in the L1I.
const defaultCodeFootprint = 8 << 10

// Validate reports parameter errors.
func (s StreamSpec) Validate() error {
	if s.FootprintBytes <= 0 {
		return errors.New("microarch: non-positive footprint")
	}
	sum := s.SeqFrac + s.StrideFrac + s.RandomFrac
	if sum < 0.99 || sum > 1.01 {
		return fmt.Errorf("microarch: access fractions sum to %v, want 1", sum)
	}
	if s.SeqFrac < 0 || s.StrideFrac < 0 || s.RandomFrac < 0 {
		return errors.New("microarch: negative access fraction")
	}
	if s.StrideFrac > 0 && s.StrideBytes <= 0 {
		return errors.New("microarch: strided component needs positive stride")
	}
	if s.HotFrac < 0 || s.HotFrac > 1 {
		return errors.New("microarch: hot fraction outside [0,1]")
	}
	if s.HotFrac > 0 && (s.HotBytes <= 0 || s.HotBytes > s.FootprintBytes) {
		return errors.New("microarch: hot subset size out of range")
	}
	if s.CodeFootprintBytes < 0 {
		return errors.New("microarch: negative code footprint")
	}
	return nil
}

// Counters aggregates the performance-counter state of one simulated run —
// the inputs of the paper's counter-based Vmin predictor (ref [11]).
type Counters struct {
	Instructions uint64
	Cycles       uint64
	MemAccesses  uint64
	L1DHits      uint64
	L2Hits       uint64
	L3Hits       uint64
	DRAMAccesses uint64
	// Instruction side.
	Fetches   uint64
	L1IHits   uint64
	L1IMisses uint64
}

// IPC returns instructions per cycle.
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// MPKI returns DRAM accesses (L3 misses) per kilo-instruction.
func (c Counters) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(c.DRAMAccesses) / float64(c.Instructions)
}

// L1MissRate returns the L1D miss ratio.
func (c Counters) L1MissRate() float64 {
	if c.MemAccesses == 0 {
		return 0
	}
	return 1 - float64(c.L1DHits)/float64(c.MemAccesses)
}

// L1IMissRate returns the instruction-cache miss ratio.
func (c Counters) L1IMissRate() float64 {
	if c.Fetches == 0 {
		return 0
	}
	return float64(c.L1IMisses) / float64(c.Fetches)
}

// DRAMBandwidthBytesPerSec returns the sustained DRAM traffic at the given
// core clock, assuming 64-byte lines.
func (c Counters) DRAMBandwidthBytesPerSec(clockHz float64) float64 {
	if c.Cycles == 0 {
		return 0
	}
	secs := float64(c.Cycles) / clockHz
	return float64(c.DRAMAccesses) * 64 / secs
}

// hierPool recycles X-Gene2 hierarchies across Simulate calls: a Reset
// hierarchy is state-identical to a fresh one (pinned by the counter-golden
// tests), and reuse avoids re-making the ~1.2 MB of flat tag arrays and
// per-set recency words — otherwise the dominant allocation of every
// simulated run.
var hierPool = sync.Pool{New: func() any {
	h, err := NewXGene2Hierarchy()
	if err != nil {
		// The fixed X-Gene2 configuration is statically valid; reaching
		// here means the package itself is broken.
		panic(err)
	}
	return h
}}

// Simulate runs nInstr instructions of a workload with the given
// instruction mix and locality through a fresh (pooled) hierarchy and
// returns its counters. Non-memory instructions contribute their isa
// latency; memory instructions pay the latency of the level that serves
// them. Results are deterministic in (mix, spec, nInstr, seed).
func Simulate(mix isa.Mix, spec StreamSpec, nInstr int, seed uint64) (Counters, error) {
	if err := mix.Validate(); err != nil {
		return Counters{}, err
	}
	if err := spec.Validate(); err != nil {
		return Counters{}, err
	}
	if nInstr <= 0 {
		return Counters{}, errors.New("microarch: non-positive instruction count")
	}
	h := hierPool.Get().(*Hierarchy)
	h.Reset()
	defer hierPool.Put(h)
	rng := xrand.New(seed).Split("microarch/stream")

	// Memory-operation fraction: loads and stores in the mix. The mix's
	// load level hints (LoadL1/L2/DRAM) describe the *intent* of the
	// profile; actual service levels come from the simulated hierarchy.
	memFrac := mix[isa.LoadL1] + mix[isa.LoadL2] + mix[isa.LoadDRAM] + mix[isa.Store]
	// Average latency of the non-memory portion, accumulated in fixed
	// class order so the float sum never depends on map iteration.
	var nonMemCPI, nonMemFrac float64
	for _, class := range isa.Classes() {
		switch class {
		case isa.LoadL1, isa.LoadL2, isa.LoadDRAM, isa.Store:
		default:
			f := mix[class]
			nonMemCPI += f * float64(class.Cycles())
			nonMemFrac += f
		}
	}
	if nonMemFrac > 0 {
		nonMemCPI /= nonMemFrac
	}

	var ctr Counters
	var seqPos, stridePos uint64
	foot := uint64(spec.FootprintBytes)
	codeFoot := uint64(spec.CodeFootprintBytes)
	if codeFoot == 0 {
		codeFoot = defaultCodeFootprint
	}
	// Instruction fetch: one 4-byte-advance fetch per instruction, walking
	// the code footprint sequentially with occasional branch-target jumps
	// (one in ~16 instructions), through the L1I.
	var pc uint64
	var cyclesF float64
	for i := 0; i < nInstr; i++ {
		ctr.Instructions++

		ctr.Fetches++
		if rng.Intn(16) == 0 {
			pc = uint64(rng.Int63()) % codeFoot
		} else {
			pc = (pc + 4) % codeFoot
		}
		flvl := h.Fetch(pc)
		if flvl == InL1 {
			ctr.L1IHits++
		} else {
			ctr.L1IMisses++
			// Fetch stalls beyond L1 add front-end cycles.
			cyclesF += float64(flvl.Latency() - InL1.Latency())
		}

		if rng.Float64() >= memFrac {
			cyclesF += nonMemCPI
			continue
		}
		// Memory access: pick the pattern component.
		var addr uint64
		r := rng.Float64()
		switch {
		case r < spec.SeqFrac:
			seqPos += 8
			addr = seqPos % foot
		case r < spec.SeqFrac+spec.StrideFrac:
			stridePos += uint64(spec.StrideBytes)
			addr = stridePos % foot
		default:
			if spec.HotFrac > 0 && rng.Float64() < spec.HotFrac {
				addr = uint64(rng.Int63()) % uint64(spec.HotBytes)
			} else {
				addr = uint64(rng.Int63()) % foot
			}
		}
		ctr.MemAccesses++
		lvl := h.Access(addr)
		switch lvl {
		case InL1:
			ctr.L1DHits++
		case InL2:
			ctr.L2Hits++
		case InL3:
			ctr.L3Hits++
		case InMemory:
			ctr.DRAMAccesses++
		}
		cyclesF += float64(lvl.Latency())
	}
	ctr.Cycles = uint64(cyclesF + 0.5)
	return ctr, nil
}
