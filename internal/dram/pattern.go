package dram

import (
	"errors"
	"fmt"
)

// PatternKind enumerates the data-pattern benchmarks (DPBenches) of
// Section III.C: all-0s, all-1s, checkerboard and random, the patterns
// shown by Liu et al. to stress DRAM retention.
type PatternKind int

const (
	// AllZeros writes 0 to every bit (stresses anti-cells).
	AllZeros PatternKind = iota + 1
	// AllOnes writes 1 to every bit (stresses true-cells).
	AllOnes
	// Checkerboard alternates bits spatially, maximizing static
	// neighbour disturbance.
	Checkerboard
	// RandomPattern writes fresh pseudo-random data each round; over
	// several rounds it covers both cell orientations and samples each
	// cell's worst-case coupling neighbourhood, which is why the paper
	// (confirming Liu et al.) finds it yields the highest BER.
	RandomPattern
)

// String names the pattern kind.
func (k PatternKind) String() string {
	switch k {
	case AllZeros:
		return "all0"
	case AllOnes:
		return "all1"
	case Checkerboard:
		return "checker"
	case RandomPattern:
		return "random"
	default:
		return fmt.Sprintf("PatternKind(%d)", int(k))
	}
}

// PatternKinds lists every DPBench pattern.
func PatternKinds() []PatternKind {
	return []PatternKind{AllZeros, AllOnes, Checkerboard, RandomPattern}
}

// Pattern is a concrete DPBench configuration.
type Pattern struct {
	Kind PatternKind
	// Rounds is how many write-wait-read passes the benchmark performs.
	// Static patterns gain nothing from extra rounds; the random pattern
	// uses fresh data each round (default 8).
	Rounds int
	// Seed drives the random pattern's data.
	Seed uint64
}

// NewPattern returns the standard configuration for a pattern kind.
func NewPattern(kind PatternKind) (Pattern, error) {
	switch kind {
	case AllZeros, AllOnes, Checkerboard:
		return Pattern{Kind: kind, Rounds: 1}, nil
	case RandomPattern:
		return Pattern{Kind: kind, Rounds: 8, Seed: 1}, nil
	default:
		return Pattern{}, fmt.Errorf("dram: unknown pattern kind %d", int(kind))
	}
}

// Validate reports configuration errors.
func (p Pattern) Validate() error {
	switch p.Kind {
	case AllZeros, AllOnes, Checkerboard, RandomPattern:
	default:
		return fmt.Errorf("dram: unknown pattern kind %d", int(p.Kind))
	}
	if p.Rounds < 1 {
		return errors.New("dram: pattern needs at least one round")
	}
	return nil
}

// cellKey folds a cell's full address for hashing.
func cellKey(dimm, rank, dev, bankIdx int, c *WeakCell) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(dimm))
	mix(uint64(rank))
	mix(uint64(dev))
	mix(uint64(bankIdx))
	mix(uint64(c.Row))
	mix(uint64(c.Col))
	mix(uint64(c.Bit))
	return h
}

// hash01 maps a key to a uniform value in [0, 1).
func hash01(key uint64) float64 {
	// SplitMix64 finalizer.
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// storedBit returns the logical bit the pattern writes at a cell in a
// given round.
func (p Pattern) storedBit(key uint64, c *WeakCell, round int) bool {
	switch p.Kind {
	case AllZeros:
		return false
	case AllOnes:
		return true
	case Checkerboard:
		return (uint64(c.Row)+uint64(c.Col)+uint64(c.Bit))&1 == 1
	default: // RandomPattern
		return hash01(key^(p.Seed*2654435761+uint64(round)*0x9e3779b97f4a7c15)) < 0.5
	}
}

// stress returns the neighbour-coupling stress in [0,1] a pattern imposes
// on a cell in a given round.
func (p Pattern) stress(key uint64, c *WeakCell, round int) float64 {
	switch p.Kind {
	case AllZeros, AllOnes:
		// Uniform data: only residual bitline disturbance.
		return 0.15
	case Checkerboard:
		// Every neighbour differs — strong but *fixed* disturbance, which
		// matches each cell's idiosyncratic worst case only partially.
		return 0.75
	default: // RandomPattern
		// Fresh data each round samples the coupling configuration space;
		// some rounds will approach the cell's worst case.
		return hash01(key ^ 0xabcdef12345678 ^ (p.Seed+uint64(round))*0x94d049bb133111eb)
	}
}
