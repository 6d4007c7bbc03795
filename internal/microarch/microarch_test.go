package microarch

import (
	"testing"

	"repro/internal/isa"
)

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bads := []CacheConfig{
		{SizeBytes: 0, LineBytes: 64, Ways: 8},
		{SizeBytes: 32 << 10, LineBytes: 60, Ways: 8}, // non-power-of-two line
		{SizeBytes: 48 << 10, LineBytes: 64, Ways: 8}, // non-power-of-two sets
		{SizeBytes: 64, LineBytes: 64, Ways: 8},       // zero sets
		{SizeBytes: 32 << 10, LineBytes: 64, Ways: -1},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestCacheHitsAfterFill(t *testing.T) {
	c, err := NewCache(CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("warm access missed")
	}
	if !c.Access(0x1038) { // same 64-byte line
		t.Error("same-line access missed")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache, one set: 128 bytes total, 64-byte lines.
	c, err := NewCache(CacheConfig{SizeBytes: 128, LineBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := uint64(0), uint64(1<<20), uint64(2<<20) // same set, different tags
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU; b is LRU
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("a should still be resident")
	}
	if c.Access(b) {
		t.Error("b should have been evicted (LRU)")
	}
}

func TestCacheResetStatsAndReset(t *testing.T) {
	c, _ := NewCache(CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4})
	c.Access(0)
	c.Access(0)
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("ResetStats did not clear counters")
	}
	if !c.Access(0) {
		t.Error("ResetStats flushed contents")
	}
	c.Reset()
	if c.Access(0) {
		t.Error("Reset left contents resident")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewXGene2Hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	if lvl := h.Access(0x100000); lvl != InMemory {
		t.Errorf("cold access served at %v, want memory", lvl)
	}
	if lvl := h.Access(0x100000); lvl != InL1 {
		t.Errorf("warm access served at %v, want L1", lvl)
	}
	// Latency ordering.
	if !(InL1.Latency() < InL2.Latency() &&
		InL2.Latency() < InL3.Latency() &&
		InL3.Latency() < InMemory.Latency()) {
		t.Error("level latencies not ordered")
	}
}

func TestHierarchyCapacityCascade(t *testing.T) {
	// A working set larger than L1 but within L2 should mostly hit L2
	// after the first pass.
	h, err := NewXGene2Hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	const ws = 128 << 10 // 128 KB: 4x L1, half of L2
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < ws; addr += 64 {
			h.Access(addr)
		}
	}
	if hr := float64(h.L2.Hits()) / float64(h.L2.Hits()+h.L2.Misses()); hr < 0.4 {
		t.Errorf("L2 hit rate %v too low for L2-resident working set", hr)
	}
	if h.L3.Misses() > ws/64+16 {
		t.Errorf("L3 misses %d exceed one cold pass", h.L3.Misses())
	}
}

func streamSpec(foot int64) StreamSpec {
	return StreamSpec{
		FootprintBytes: foot,
		SeqFrac:        0.5,
		StrideFrac:     0.2,
		RandomFrac:     0.3,
		StrideBytes:    256,
	}
}

func TestStreamSpecValidate(t *testing.T) {
	if err := streamSpec(1 << 20).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bads := []StreamSpec{
		{FootprintBytes: 0, SeqFrac: 1},
		{FootprintBytes: 1 << 20, SeqFrac: 0.5},                  // fractions sum to 0.5
		{FootprintBytes: 1 << 20, SeqFrac: 0.5, StrideFrac: 0.5}, // stride without StrideBytes
		{FootprintBytes: 1 << 20, RandomFrac: 1, HotFrac: 0.5},   // hot without HotBytes
		{FootprintBytes: 1 << 20, RandomFrac: 1, HotFrac: 1.5, HotBytes: 1},
	}
	for i, s := range bads {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func specMix() isa.Mix {
	return isa.Mix{
		isa.IntALU: 0.45,
		isa.FPALU:  0.15,
		isa.LoadL1: 0.25,
		isa.Store:  0.10,
		isa.Branch: 0.05,
	}
}

func TestSimulateSmallFootprintCacheFriendly(t *testing.T) {
	// A footprint far below L1 capacity should produce near-perfect L1
	// hit rates and IPC close to the mix's ideal.
	ctr, err := Simulate(specMix(), StreamSpec{
		FootprintBytes: 16 << 10,
		SeqFrac:        1,
	}, 200000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mr := ctr.L1MissRate(); mr > 0.02 {
		t.Errorf("L1 miss rate %v for L1-resident stream", mr)
	}
	// Only the ~256 cold misses of the 16 KB footprint reach DRAM.
	if ctr.MPKI() > 2 {
		t.Errorf("MPKI %v for cache-resident workload", ctr.MPKI())
	}
	if ipc := ctr.IPC(); ipc < 0.8 {
		t.Errorf("IPC %v too low for cache-friendly code", ipc)
	}
}

func TestSimulateLargeRandomFootprintMemoryBound(t *testing.T) {
	ctr, err := Simulate(specMix(), StreamSpec{
		FootprintBytes: 512 << 20,
		RandomFrac:     1,
	}, 200000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.MPKI() < 50 {
		t.Errorf("MPKI %v too low for a 512MB random walk", ctr.MPKI())
	}
	if ipc := ctr.IPC(); ipc > 0.25 {
		t.Errorf("IPC %v too high for a memory-bound workload", ipc)
	}
	if ctr.DRAMAccesses == 0 {
		t.Error("memory-bound workload reports no DRAM accesses")
	}
}

func TestSimulateHotSubsetImprovesLocality(t *testing.T) {
	base := StreamSpec{FootprintBytes: 256 << 20, RandomFrac: 1}
	hot := base
	hot.HotFrac = 0.9
	hot.HotBytes = 24 << 10
	cold, err := Simulate(specMix(), base, 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Simulate(specMix(), hot, 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if warm.MPKI() >= cold.MPKI() {
		t.Errorf("hot subset did not reduce MPKI: %v vs %v", warm.MPKI(), cold.MPKI())
	}
	if warm.IPC() <= cold.IPC() {
		t.Errorf("hot subset did not raise IPC: %v vs %v", warm.IPC(), cold.IPC())
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(specMix(), streamSpec(64<<20), 50000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(specMix(), streamSpec(64<<20), 50000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced different counters:\n%+v\n%+v", a, b)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(isa.Mix{isa.IntALU: 0.5}, streamSpec(1<<20), 100, 1); err == nil {
		t.Error("invalid mix accepted")
	}
	if _, err := Simulate(specMix(), StreamSpec{}, 100, 1); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := Simulate(specMix(), streamSpec(1<<20), 0, 1); err == nil {
		t.Error("zero instructions accepted")
	}
}

func TestCountersDerivedMetrics(t *testing.T) {
	c := Counters{Instructions: 1000, Cycles: 2000, MemAccesses: 400, L1DHits: 300, DRAMAccesses: 10}
	if c.IPC() != 0.5 {
		t.Errorf("IPC = %v", c.IPC())
	}
	if c.MPKI() != 10 {
		t.Errorf("MPKI = %v", c.MPKI())
	}
	if mr := c.L1MissRate(); mr != 0.25 {
		t.Errorf("L1 miss rate = %v", mr)
	}
	var zero Counters
	if zero.IPC() != 0 || zero.MPKI() != 0 || zero.L1MissRate() != 0 {
		t.Error("zero counters should yield zero metrics")
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := NewXGene2Hierarchy()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i) * 64 % (64 << 20))
	}
}

func BenchmarkSimulate100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = Simulate(specMix(), streamSpec(64<<20), 100000, uint64(i))
	}
}

func TestInstructionFetchSide(t *testing.T) {
	// Small code footprint: near-perfect L1I hit rate.
	small, err := Simulate(specMix(), StreamSpec{
		FootprintBytes: 16 << 10,
		SeqFrac:        1,
	}, 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.Fetches != small.Instructions {
		t.Errorf("fetches %d != instructions %d", small.Fetches, small.Instructions)
	}
	if mr := float64(small.L1IMisses) / float64(small.Fetches); mr > 0.01 {
		t.Errorf("L1I miss rate %v for resident code", mr)
	}
	// Code footprint 3x the L1I with random jumps: substantial misses.
	big, err := Simulate(specMix(), StreamSpec{
		FootprintBytes:     16 << 10,
		SeqFrac:            1,
		CodeFootprintBytes: 96 << 10,
	}, 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mr := float64(big.L1IMisses) / float64(big.Fetches); mr < 0.02 {
		t.Errorf("L1I miss rate %v too low for a 96KB code body", mr)
	}
	// Front-end stalls must cost cycles: IPC drops vs the resident case.
	if big.IPC() >= small.IPC() {
		t.Errorf("I-cache thrashing did not reduce IPC: %v vs %v", big.IPC(), small.IPC())
	}
}

func TestFetchSeparateFromData(t *testing.T) {
	h, err := NewXGene2Hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the D-side at an address; the I-side must still miss on it.
	h.Access(0x4000)
	if lvl := h.Fetch(0x4000); lvl == InL1 {
		t.Error("instruction fetch hit the data cache")
	}
	// But both share L2: the fetch above filled L2, so a second fetch hits L1I,
	// and a fresh nearby fetch line misses L1I and hits L2.
	if lvl := h.Fetch(0x4000); lvl != InL1 {
		t.Errorf("warm fetch served at %v", lvl)
	}
}

func TestNegativeCodeFootprintRejected(t *testing.T) {
	s := StreamSpec{FootprintBytes: 1 << 20, SeqFrac: 1, CodeFootprintBytes: -1}
	if err := s.Validate(); err == nil {
		t.Error("negative code footprint accepted")
	}
}
