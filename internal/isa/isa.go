// Package isa models ARMv8 instruction streams at the granularity the
// guardband study needs: each instruction class has a characteristic
// current draw and latency, and executing a loop yields a per-cycle current
// waveform plus throughput figures.
//
// This is deliberately not a cycle-accurate ARMv8 pipeline. The dI/dt virus
// search (Section III.C of the paper) only requires that the mapping from
// instruction sequence to current waveform preserve the real search
// landscape: bursts of wide FP/SIMD operations draw much more current than
// dependent NOPs or long-latency loads, so a loop that alternates the two at
// the PDN resonant period produces worst-case voltage noise.
package isa

import (
	"errors"
	"fmt"
	"strings"
)

// Class enumerates the instruction classes the model distinguishes.
type Class int

const (
	// NOP is an architectural no-op (minimal switching activity).
	NOP Class = iota + 1
	// IntALU is a simple integer ALU operation (ADD, ORR, ...).
	IntALU
	// IntMul is an integer multiply.
	IntMul
	// FPALU is a scalar floating-point operation.
	FPALU
	// FPSIMD is a wide fused multiply-add NEON operation — the
	// highest-power instruction on the X-Gene2 per the paper's viruses.
	FPSIMD
	// LoadL1 is a load that hits in the L1 data cache.
	LoadL1
	// LoadL2 is a load that hits in the L2 cache (short stall).
	LoadL2
	// LoadDRAM is a load that misses all caches (long, low-power stall).
	LoadDRAM
	// Store is a store to the L1 data cache.
	Store
	// Branch is a taken branch.
	Branch

	numClasses = int(Branch)
)

// String returns the mnemonic-ish name of the class.
func (c Class) String() string {
	switch c {
	case NOP:
		return "nop"
	case IntALU:
		return "add"
	case IntMul:
		return "mul"
	case FPALU:
		return "fadd"
	case FPSIMD:
		return "fmla.v"
	case LoadL1:
		return "ldr.l1"
	case LoadL2:
		return "ldr.l2"
	case LoadDRAM:
		return "ldr.mem"
	case Store:
		return "str"
	case Branch:
		return "b"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// NumClasses is the number of distinct instruction classes — the length of
// Classes(). Exported so mix-keyed memo tables (internal/simcache) can use
// a fixed-size, comparable array representation.
const NumClasses = numClasses

// Valid reports whether c is a known instruction class.
func (c Class) Valid() bool { return c >= NOP && int(c) <= numClasses }

// Classes lists every instruction class, useful for mutation operators.
func Classes() []Class {
	out := make([]Class, 0, numClasses)
	for c := NOP; int(c) <= numClasses; c++ {
		out = append(out, c)
	}
	return out
}

// traits holds the power/latency model of one instruction class.
type traits struct {
	currentA float64 // current drawn while the instruction occupies the pipe
	cycles   int     // occupancy in cycles (issue-to-issue, scalar model)
}

// classTraits is calibrated so that an FPSIMD/NOP square wave spans the
// full current swing the paper's viruses exploit (~1 A idle to ~8 A burst
// per core) while memory-stalled code sits at low current — the reason real
// memory-bound workloads (e.g. mcf) exhibit low Vmin in Fig. 4.
var classTraits = map[Class]traits{
	NOP:      {currentA: 1.0, cycles: 1},
	IntALU:   {currentA: 3.0, cycles: 1},
	IntMul:   {currentA: 4.2, cycles: 2},
	FPALU:    {currentA: 5.5, cycles: 1},
	FPSIMD:   {currentA: 8.0, cycles: 1},
	LoadL1:   {currentA: 3.4, cycles: 1},
	LoadL2:   {currentA: 2.2, cycles: 4},
	LoadDRAM: {currentA: 1.3, cycles: 40},
	Store:    {currentA: 3.1, cycles: 1},
	Branch:   {currentA: 2.4, cycles: 1},
}

// CurrentA returns the per-cycle current draw of the class in amperes.
func (c Class) CurrentA() float64 { return classTraits[c].currentA }

// Cycles returns the pipeline occupancy of the class in cycles.
func (c Class) Cycles() int { return classTraits[c].cycles }

// MaxCurrentA is the highest per-class current (the FPSIMD burst level).
func MaxCurrentA() float64 { return classTraits[FPSIMD].currentA }

// MinCurrentA is the lowest per-class current (the NOP idle level).
func MinCurrentA() float64 { return classTraits[NOP].currentA }

// Loop is an instruction loop body — the genome of the dI/dt virus search
// and the representation of synthetic stress kernels.
type Loop struct {
	Body []Class
}

// NewLoop builds a loop from the given classes, validating each.
func NewLoop(body ...Class) (Loop, error) {
	if len(body) == 0 {
		return Loop{}, errors.New("isa: empty loop body")
	}
	for i, c := range body {
		if !c.Valid() {
			return Loop{}, fmt.Errorf("isa: invalid class %d at position %d", int(c), i)
		}
	}
	return Loop{Body: append([]Class(nil), body...)}, nil
}

// Clone returns a deep copy of the loop.
func (l Loop) Clone() Loop {
	return Loop{Body: append([]Class(nil), l.Body...)}
}

// Len returns the number of instructions in the loop body.
func (l Loop) Len() int { return len(l.Body) }

// String renders the loop as assembly-like text.
func (l Loop) String() string {
	parts := make([]string, len(l.Body))
	for i, c := range l.Body {
		parts[i] = c.String()
	}
	return strings.Join(parts, "; ")
}

// ExecResult describes one simulated traversal of a loop body.
type ExecResult struct {
	// Waveform is the per-cycle current draw in amperes over one loop
	// iteration (length == total cycles).
	Waveform []float64
	// Cycles is the total cycle count of one iteration.
	Cycles int
	// Instructions is the number of instructions in the body.
	Instructions int
	// IPC is Instructions / Cycles.
	IPC float64
	// AvgCurrentA is the mean of the waveform.
	AvgCurrentA float64
}

// Execute runs one iteration of the loop through the scalar timing model
// and returns its current waveform. An instruction occupying n cycles
// contributes its class current for all n cycles (long stalls therefore
// pull the average current down).
func (l Loop) Execute() (ExecResult, error) {
	if len(l.Body) == 0 {
		return ExecResult{}, errors.New("isa: empty loop body")
	}
	total := 0
	for _, c := range l.Body {
		if !c.Valid() {
			return ExecResult{}, fmt.Errorf("isa: invalid class %d", int(c))
		}
		total += classTraits[c].cycles
	}
	w := make([]float64, 0, total)
	var sum float64
	for _, c := range l.Body {
		tr := classTraits[c]
		for i := 0; i < tr.cycles; i++ {
			w = append(w, tr.currentA)
			sum += tr.currentA
		}
	}
	return ExecResult{
		Waveform:     w,
		Cycles:       total,
		Instructions: len(l.Body),
		IPC:          float64(len(l.Body)) / float64(total),
		AvgCurrentA:  sum / float64(total),
	}, nil
}

// Mix describes an instruction-class distribution (fractions summing to ~1).
type Mix map[Class]float64

// Validate checks the mix for unknown classes and a sane total.
func (m Mix) Validate() error {
	var sum float64
	for c, f := range m {
		if !c.Valid() {
			return fmt.Errorf("isa: mix contains invalid class %d", int(c))
		}
		if f < 0 {
			return fmt.Errorf("isa: negative fraction for %v", c)
		}
		sum += f
	}
	if sum < 0.99 || sum > 1.01 {
		return fmt.Errorf("isa: mix fractions sum to %v, want 1.0", sum)
	}
	return nil
}

// AvgCurrentA returns the cycle-weighted average current of code drawn from
// the mix: sum(frac*current*cycles) / sum(frac*cycles). Iteration follows
// the fixed class order so repeated calls sum in the same order and return
// bit-identical results.
func (m Mix) AvgCurrentA() float64 {
	var num, den float64
	for _, c := range Classes() {
		f, ok := m[c]
		if !ok {
			continue
		}
		tr := classTraits[c]
		num += f * tr.currentA * float64(tr.cycles)
		den += f * float64(tr.cycles)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// IPC returns the throughput of code drawn from the mix under the scalar
// timing model: 1 / expected cycles per instruction.
func (m Mix) IPC() float64 {
	var cpi float64
	for _, c := range Classes() {
		if f, ok := m[c]; ok {
			cpi += f * float64(classTraits[c].cycles)
		}
	}
	if cpi == 0 {
		return 0
	}
	return 1 / cpi
}
