package microarch

import (
	"math/rand/v2"
	"testing"
)

// lruCfg is a tiny 4-set x 4-way cache: big enough to exercise the
// per-set recency words and flat indexing, small enough to reason about
// exactly.
var lruCfg = CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 4}

// addrFor builds an address that maps to the given set with the given tag
// under lruCfg (64 B lines => 6 offset bits, 4 sets => 2 index bits).
func addrFor(set, tag uint64) uint64 { return tag<<8 | set<<6 }

// TestCacheFillsInvalidWaysFirst pins the victim policy's first phase: a
// set fills its ways lowest-index-first before any eviction happens, so
// the first Ways distinct tags all miss without displacing each other.
func TestCacheFillsInvalidWaysFirst(t *testing.T) {
	c, err := NewCache(lruCfg)
	if err != nil {
		t.Fatal(err)
	}
	for tag := uint64(0); tag < 4; tag++ {
		if c.Access(addrFor(1, tag+1)) {
			t.Fatalf("tag %d: unexpected hit while filling", tag+1)
		}
	}
	// Every resident line must now hit, regardless of insertion order.
	for tag := uint64(0); tag < 4; tag++ {
		if !c.Access(addrFor(1, tag+1)) {
			t.Fatalf("tag %d: filled line missed", tag+1)
		}
	}
	if c.Hits() != 4 || c.Misses() != 4 {
		t.Fatalf("hits/misses = %d/%d, want 4/4", c.Hits(), c.Misses())
	}
}

// TestCacheLRUEvictionOrder pins true-LRU on the flattened storage: with a
// set full, each conflict evicts exactly the least recently used line —
// including recency updates from hits.
func TestCacheLRUEvictionOrder(t *testing.T) {
	c, err := NewCache(lruCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill set 2 with tags 1..4 (ways 0..3, in order), then touch tag 1:
	// LRU order is now 2, 3, 4, 1.
	for tag := uint64(1); tag <= 4; tag++ {
		c.Access(addrFor(2, tag))
	}
	if !c.Access(addrFor(2, 1)) {
		t.Fatal("tag 1 should hit before any eviction")
	}
	// Tag 5 must evict tag 2 (the LRU), leaving 3, 4, 1, 5 resident.
	if c.Access(addrFor(2, 5)) {
		t.Fatal("tag 5: unexpected hit")
	}
	if c.Access(addrFor(2, 2)) {
		t.Fatal("tag 2 should have been evicted as LRU")
	}
	// That re-fill of tag 2 evicted tag 3 (next LRU): 4, 1, 5, 2 resident.
	if c.Access(addrFor(2, 3)) {
		t.Fatal("tag 3 should have been evicted next")
	}
	for _, tag := range []uint64{1, 5, 2, 3} {
		if !c.Access(addrFor(2, tag)) {
			t.Fatalf("tag %d should still be resident", tag)
		}
	}
	// Other sets were never touched: tag 1 in set 0 misses.
	if c.Access(addrFor(0, 1)) {
		t.Fatal("set 0 should be empty; flat indexing leaked across sets")
	}
}

// TestCacheResetRestoresFreshState pins the cheap Reset contract: after
// Reset, contents, recency order and statistics behave exactly like a new
// cache, even though tag slots are deliberately left stale.
func TestCacheResetRestoresFreshState(t *testing.T) {
	c, err := NewCache(lruCfg)
	if err != nil {
		t.Fatal(err)
	}
	for tag := uint64(1); tag <= 6; tag++ {
		c.Access(addrFor(3, tag))
	}
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("stats after Reset = %d/%d, want 0/0", c.Hits(), c.Misses())
	}
	// A pre-reset resident tag must miss, and the set must refill and
	// evict in exactly the order a fresh cache would.
	for tag := uint64(1); tag <= 4; tag++ {
		if c.Access(addrFor(3, tag)) {
			t.Fatalf("tag %d: stale line survived Reset", tag)
		}
	}
	if c.Access(addrFor(3, 7)) {
		t.Fatal("tag 7: unexpected hit")
	}
	if c.Access(addrFor(3, 1)) {
		t.Fatal("tag 1 should be the post-reset LRU victim")
	}
}

// TestCacheWaysBound pins the configuration limit that the recency word
// imposes: 16 ways are accepted, 17 and beyond are rejected.
func TestCacheWaysBound(t *testing.T) {
	if _, err := NewCache(CacheConfig{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}); err != nil {
		t.Fatalf("16-way configuration rejected: %v", err)
	}
	for _, ways := range []int{17, 128} {
		if _, err := NewCache(CacheConfig{SizeBytes: ways << 12, LineBytes: 64, Ways: ways}); err == nil {
			t.Fatalf("%d-way configuration accepted", ways)
		}
	}
}

// stampCache is the reference model for the recency word: per-way
// validity and last-use stamps from a global access counter, victim the
// first invalid way, else the way with the oldest stamp (lowest index on
// ties).
type stampCache struct {
	ways     int
	lineBits uint
	setMask  uint64
	setBits  uint
	tags     [][]uint64
	stamps   [][]uint64
	valid    [][]bool
	tick     uint64
}

func newStampCache(cfg CacheConfig) *stampCache {
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	r := &stampCache{ways: cfg.Ways, setMask: uint64(sets - 1)}
	for 1<<r.lineBits < cfg.LineBytes {
		r.lineBits++
	}
	for 1<<r.setBits < sets {
		r.setBits++
	}
	r.tags = make([][]uint64, sets)
	r.stamps = make([][]uint64, sets)
	r.valid = make([][]bool, sets)
	r.reset()
	return r
}

func (r *stampCache) reset() {
	for i := range r.tags {
		r.tags[i] = make([]uint64, r.ways)
		r.stamps[i] = make([]uint64, r.ways)
		r.valid[i] = make([]bool, r.ways)
	}
	r.tick = 0
}

func (r *stampCache) access(addr uint64) bool {
	r.tick++
	line := addr >> r.lineBits
	set, tag := line&r.setMask, line>>r.setBits
	tags, stamps, valid := r.tags[set], r.stamps[set], r.valid[set]
	for w := range tags {
		if valid[w] && tags[w] == tag {
			stamps[w] = r.tick
			return true
		}
	}
	victim := -1
	for w := range tags {
		if !valid[w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		for w := 1; w < r.ways; w++ {
			if stamps[w] < stamps[victim] {
				victim = w
			}
		}
	}
	tags[victim], stamps[victim], valid[victim] = tag, r.tick, true
	return false
}

// TestCacheMatchesStampLRU checks the recency-word Cache against the
// stamp-based reference access for access: every associativity from 1
// to 16 ways, several set counts, random (with a hot subset), sequential
// and set-conflicting strided streams, with a Reset halfway through.
func TestCacheMatchesStampLRU(t *testing.T) {
	const accesses = 3000
	// Each stream maps access i to an address; footprints are about twice
	// the capacity, so every stream both hits and evicts.
	streams := map[string]func(rng *rand.Rand, i, sets, ways int) uint64{
		"random": func(rng *rand.Rand, _, sets, ways int) uint64 {
			if rng.IntN(4) == 0 {
				return rng.Uint64N(4) * 64 // hot lines
			}
			return rng.Uint64N(uint64(2*sets*ways*64)) &^ 7
		},
		"sequential": func(_ *rand.Rand, i, sets, ways int) uint64 {
			return uint64(i*8) % uint64(2*sets*ways*64)
		},
		// Conflicts: lines one set apart, cycling over ways+1 lines of
		// one set with an occasional line of the next set.
		"strided": func(rng *rand.Rand, i, sets, ways int) uint64 {
			line := i % (ways + 1) * sets
			if rng.IntN(8) == 0 {
				line++
			}
			return uint64(line * 64)
		},
	}
	for ways := 1; ways <= maxWays; ways++ {
		for _, sets := range []int{1, 2, 16, 64} {
			cfg := CacheConfig{SizeBytes: sets * ways * 64, LineBytes: 64, Ways: ways}
			for name, next := range streams {
				c, err := NewCache(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := newStampCache(cfg)
				rng := rand.New(rand.NewPCG(uint64(ways), uint64(sets)))
				var refHits, refMisses uint64
				for i := 0; i < accesses; i++ {
					if i == accesses/2 {
						c.Reset()
						ref.reset()
						refHits, refMisses = 0, 0
					}
					addr := next(rng, i, sets, ways)
					want := ref.access(addr)
					if want {
						refHits++
					} else {
						refMisses++
					}
					if got := c.Access(addr); got != want {
						t.Fatalf("%d ways x %d sets, %s stream, access %d (addr %#x): hit %v, reference %v",
							ways, sets, name, i, addr, got, want)
					}
				}
				if c.Hits() != refHits || c.Misses() != refMisses {
					t.Fatalf("%d ways x %d sets, %s stream: hits/misses %d/%d, reference %d/%d",
						ways, sets, name, c.Hits(), c.Misses(), refHits, refMisses)
				}
			}
		}
	}
}
