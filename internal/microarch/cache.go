// Package microarch simulates the X-Gene2 core-side microarchitecture at
// the fidelity the guardband study needs: a set-associative cache hierarchy
// (32 KB L1I + 32 KB L1D per core, 256 KB L2 per PMD, 8 MB L3 behind the
// central switch) exercised by synthetic address streams, yielding the
// performance counters (IPC, MPKI, hit rates, DRAM bandwidth) that the
// paper's Vmin predictor consumes and that determine each workload's DRAM
// access behaviour.
package microarch

import (
	"errors"
	"fmt"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// Validate reports whether the configuration is realizable.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return errors.New("microarch: cache dimensions must be positive")
	}
	if c.Ways > maxWays {
		return fmt.Errorf("microarch: more than %d ways unsupported", maxWays)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return errors.New("microarch: line size must be a power of two")
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets <= 0 {
		return fmt.Errorf("microarch: %d sets; size too small for %d ways", sets, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return errors.New("microarch: set count must be a power of two")
	}
	return nil
}

// maxWays is the associativity one recency word can order: 16 four-bit
// way numbers fill its 64 bits.
const maxWays = 16

// Cache is a set-associative cache with true-LRU replacement.
//
// Tags live in one flat slice indexed set*ways+way. Each set keeps a
// recency word next to its fill count: the word holds the set's way
// numbers as 16 four-bit fields, most recently used first, so a cache has
// at most 16 ways. Ways fill lowest-first until the set is full; a hit
// moves its way to the front of the word, and a miss in a full set
// replaces the way at the back. Every access stamps a distinct time, so
// this order is exactly the order of per-way last-use stamps, and
// replacement matches stamp-based true LRU (first free way, else the
// oldest stamp) access for access; the counter-golden test pins it.
// Repeating the cache's previous line is a hit that changes no order, so
// it returns before the set is touched.
type Cache struct {
	cfg     CacheConfig
	sets    []cacheSet
	ways    int
	setBits uint // precomputed uintBits(setMask): the tag shift
	setMask uint64
	// lineBits is the line-offset shift.
	lineBits uint
	// tags[set*ways+way] holds the stored tag. A slot is meaningful only
	// below its set's fill count, so Reset never has to clear it.
	tags []uint64
	// last is the line of the previous access, valid while haveLast.
	last     uint64
	haveLast bool

	hits, misses uint64
}

// cacheSet is one set's replacement state: order holds way numbers in
// four-bit fields from the most recently used (bits 0-3) to the least,
// and fill counts the valid ways, which are always ways 0..fill-1.
type cacheSet struct {
	order uint64
	fill  uint64
}

// NewCache constructs a cache from its configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	setMask := uint64(sets - 1)
	return &Cache{
		cfg:      cfg,
		sets:     make([]cacheSet, sets),
		ways:     cfg.Ways,
		lineBits: lineBits,
		setMask:  setMask,
		setBits:  uintBits(setMask),
		tags:     make([]uint64, sets*cfg.Ways),
	}, nil
}

// Access looks up addr, filling the line on a miss, and reports a hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	if line == c.last && c.haveLast {
		// The previous access left this line resident and most recent.
		c.hits++
		return true
	}
	c.last, c.haveLast = line, true
	set := line & c.setMask
	tag := line >> c.setBits
	s := &c.sets[set]
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	for w, t := range tags[:s.fill] {
		if t == tag {
			c.hits++
			shift := uint(0)
			for s.order>>shift&0xF != uint64(w) {
				shift += 4
			}
			s.order = toFront(s.order, shift)
			return true
		}
	}
	c.misses++
	if s.fill < uint64(len(tags)) {
		tags[s.fill] = tag
		s.order = s.order<<4 | s.fill
		s.fill++
		return false
	}
	s.order = toFront(s.order, 4*uint(len(tags)-1))
	tags[s.order&0xF] = tag
	return false
}

// toFront moves the way number in order's four-bit field at bit shift to
// the front (bits 0-3), keeping the relative order of the others.
func toFront(order uint64, shift uint) uint64 {
	below := uint64(1)<<shift - 1
	return order&^(below|0xF<<shift) | (order&below)<<4 | order>>shift&0xF
}

// uintBits returns the number of set-index bits for a mask of form 2^k-1.
// It runs once per NewCache; Access uses the precomputed shift.
func uintBits(mask uint64) uint {
	n := uint(0)
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// Hits returns the hit count since construction or Reset.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count since construction or Reset.
func (c *Cache) Misses() uint64 { return c.misses }

// ResetStats clears the hit/miss counters without flushing contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Reset invalidates every line and clears statistics, returning the cache
// to its freshly constructed state. It only clears the per-set recency
// words and fill counts — a tag slot is unreachable until its set fills
// it again — so resetting an 8 MB L3 costs one small memclr instead of
// re-making a megabyte of tags. This is what lets a Hierarchy be reused
// across Simulate calls.
func (c *Cache) Reset() {
	clear(c.sets)
	c.haveLast = false
	c.ResetStats()
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Hierarchy is one core's view of the X-Gene2 cache hierarchy. L2 is
// physically shared between the two cores of a PMD and L3 across the SoC;
// for counter purposes each core simulates its own slice, which matches the
// paper's single-process-per-core characterization setups.
type Hierarchy struct {
	L1I, L1D, L2, L3 *Cache
}

// Latencies (cycles) of each hierarchy level, calibrated to X-Gene2-class
// parts; DRAM latency matches the isa.LoadDRAM stall.
const (
	LatL1  = 1
	LatL2  = 4
	LatL3  = 15
	LatMem = 40
)

// NewXGene2Hierarchy builds the paper's hierarchy: 32 KB 8-way L1I and
// L1D, 256 KB 8-way L2, 8 MB 16-way L3, 64-byte lines throughout.
func NewXGene2Hierarchy() (*Hierarchy, error) {
	l1i, err := NewCache(CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8})
	if err != nil {
		return nil, fmt.Errorf("microarch: L1I: %w", err)
	}
	l1d, err := NewCache(CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8})
	if err != nil {
		return nil, fmt.Errorf("microarch: L1D: %w", err)
	}
	l2, err := NewCache(CacheConfig{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8})
	if err != nil {
		return nil, fmt.Errorf("microarch: L2: %w", err)
	}
	l3, err := NewCache(CacheConfig{SizeBytes: 8 << 20, LineBytes: 64, Ways: 16})
	if err != nil {
		return nil, fmt.Errorf("microarch: L3: %w", err)
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, L3: l3}, nil
}

// Level identifies where an access was served.
type Level int

const (
	// InL1 means the access hit in the L1 data cache.
	InL1 Level = iota + 1
	// InL2 means it missed L1 and hit L2.
	InL2
	// InL3 means it missed L2 and hit the shared L3.
	InL3
	// InMemory means it went to DRAM.
	InMemory
)

// Latency returns the access latency of the level in cycles.
func (l Level) Latency() int {
	switch l {
	case InL1:
		return LatL1
	case InL2:
		return LatL2
	case InL3:
		return LatL3
	default:
		return LatMem
	}
}

// Access walks the hierarchy for a data address and returns the serving
// level.
func (h *Hierarchy) Access(addr uint64) Level {
	if h.L1D.Access(addr) {
		return InL1
	}
	if h.L2.Access(addr) {
		return InL2
	}
	if h.L3.Access(addr) {
		return InL3
	}
	return InMemory
}

// Fetch walks the instruction side for a code address: L1I, then the
// unified L2/L3.
func (h *Hierarchy) Fetch(addr uint64) Level {
	if h.L1I.Access(addr) {
		return InL1
	}
	if h.L2.Access(addr) {
		return InL2
	}
	if h.L3.Access(addr) {
		return InL3
	}
	return InMemory
}

// Reset returns every level to its freshly constructed state, so one
// Hierarchy can serve any number of Simulate calls without re-making its
// multi-megabyte backing arrays.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.L3.Reset()
}
