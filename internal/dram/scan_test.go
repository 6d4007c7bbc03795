package dram

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/xrand"
)

// referenceCollectFailures is the exhaustive scan the retention index
// replaced: every weak cell of every bank is hashed and tested, and every
// VRT cell draws from the dram/vrt stream. It is the oracle the indexed
// kernel must reproduce exactly.
func referenceCollectFailures(m *Module, p Pattern, trefp time.Duration, runSeed uint64, wf *workloadFilter) []CellAddr {
	g := m.cfg.Geometry
	vrtRng := xrand.New(runSeed).Split("dram/vrt")
	trefpS := trefp.Seconds()

	var fails []CellAddr
	for di := 0; di < g.DIMMs; di++ {
		temp := m.dimmTempC[di]
		for ri := 0; ri < g.RanksPerDIMM; ri++ {
			for vi := 0; vi < g.DevicesPerRank; vi++ {
				dev := m.fabric().devices[di][ri][vi]
				for bi := range dev.banks {
					for i := range dev.banks[bi].weak {
						c := &dev.banks[bi].weak[i]
						key := cellKey(di, ri, vi, bi, c)
						vrtActive := c.VRT && vrtRng.Bool()

						if wf != nil {
							if m.workloadCellFails(wf, key, c, temp, trefpS, vrtActive) {
								fails = append(fails, CellAddr{
									DIMM: di, Rank: ri, Device: vi, Bank: bi,
									Row: c.Row, Col: c.Col, Bit: c.Bit,
								})
							}
							continue
						}

						failed := false
						for round := 0; round < p.Rounds && !failed; round++ {
							stored := p.storedBit(key, c, round)
							if stored != c.TrueCell {
								continue
							}
							stress := p.stress(key, c, round)
							if m.EffectiveRetention(*c, temp, stress, vrtActive) < trefpS {
								failed = true
							}
						}
						if failed {
							fails = append(fails, CellAddr{
								DIMM: di, Rank: ri, Device: vi, Bank: bi,
								Row: c.Row, Col: c.Col, Bit: c.Bit,
							})
						}
					}
				}
			}
		}
	}
	return fails
}

func referenceScanPattern(m *Module, p Pattern, trefp time.Duration, runSeed uint64) *ScanResult {
	fails := referenceCollectFailures(m, p, trefp, runSeed, nil)
	return m.buildResult(fails, m.cfg.Geometry.TotalBits(), runSeed)
}

func referenceScanWorkload(m *Module, w WorkloadMem, trefp time.Duration, runSeed uint64) *ScanResult {
	total := m.cfg.Geometry.TotalBits()
	footBits := w.FootprintBytes * 8
	if footBits > total {
		footBits = total
	}
	wf := &workloadFilter{mem: w, footFrac: float64(footBits) / float64(total), seed: runSeed}
	fails := referenceCollectFailures(m, Pattern{Kind: RandomPattern, Rounds: 1, Seed: runSeed}, trefp, runSeed, wf)
	return m.buildResult(fails, footBits, runSeed)
}

// oracleWorkloads are the four Rodinia memory profiles of Fig. 8 (as in
// internal/workloads, which imports this package) plus the extremes of
// the workload filter: every row hot, a footprint of a few cells, and a
// footprint larger than the memory.
var oracleWorkloads = []struct {
	name string
	mem  WorkloadMem
}{
	{"backprop", WorkloadMem{FootprintBytes: 4 << 30, HotFraction: 0.40, ReuseInterval: 300 * time.Millisecond, RandomDataFrac: 0.70}},
	{"kmeans", WorkloadMem{FootprintBytes: 6 << 30, HotFraction: 0.70, ReuseInterval: 80 * time.Millisecond, RandomDataFrac: 0.50}},
	{"nw", WorkloadMem{FootprintBytes: 8 << 30, HotFraction: 0.10, ReuseInterval: 800 * time.Millisecond, RandomDataFrac: 0.60}},
	{"srad", WorkloadMem{FootprintBytes: 5 << 30, HotFraction: 0.45, ReuseInterval: 250 * time.Millisecond, RandomDataFrac: 0.60}},
	{"allhot", WorkloadMem{FootprintBytes: 16 << 30, HotFraction: 1, ReuseInterval: 500 * time.Millisecond, RandomDataFrac: 0.8}},
	{"tiny", WorkloadMem{FootprintBytes: 4096, HotFraction: 0.3, ReuseInterval: 100 * time.Millisecond, RandomDataFrac: 0.5}},
	{"whole", WorkloadMem{FootprintBytes: 64 << 30, RandomDataFrac: 0.9}},
}

// oracleThermals are the temperature settings of the oracle matrix:
// uniform set points from ambient to beyond Table I, and a per-DIMM
// gradient so banks of one scan fall on both sides of the sparse/linear
// switch.
var oracleThermals = []struct {
	name  string
	temps []float64
}{
	{"30C", []float64{30, 30, 30, 30}},
	{"45C", []float64{45, 45, 45, 45}},
	{"50C", []float64{50, 50, 50, 50}},
	{"55C", []float64{55, 55, 55, 55}},
	{"60C", []float64{60, 60, 60, 60}},
	{"85C", []float64{85, 85, 85, 85}},
	{"gradient", []float64{30, 44, 53, 61}},
}

var oracleTREFPs = []time.Duration{
	64 * time.Millisecond, time.Second, 2283 * time.Millisecond, 5 * time.Second, 30 * time.Second,
}

func oraclePatterns() []Pattern {
	var ps []Pattern
	for _, k := range PatternKinds() {
		p, _ := NewPattern(k) // random: 8 rounds
		ps = append(ps, p)
	}
	return ps
}

// TestScanMatchesExhaustiveReference pins the retention-indexed kernel to
// the exhaustive loop across temperatures, refresh periods, patterns,
// workloads and run seeds. The module keeps the full 4x2x9x8 bank layout
// with 1/16 of the rows, so each bank holds ~26 weak cells and both the
// sparse and the linear path run; the full-size module is covered at the
// paper's refresh period below.
func TestScanMatchesExhaustiveReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry.RowsPerBank = 4096
	m, err := NewModule(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1, 7, 0xdeadbeef}
	checked, failing := 0, 0
	for _, th := range oracleThermals {
		for d, tc := range th.temps {
			if err := m.SetDIMMTemp(d, tc); err != nil {
				t.Fatal(err)
			}
		}
		for _, trefp := range oracleTREFPs {
			for _, seed := range seeds {
				for _, p := range oraclePatterns() {
					got, err := m.ScanPattern(p, trefp, seed)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceScanPattern(m, p, trefp, seed)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s trefp=%v seed=%d %v: indexed scan differs from reference (%d vs %d failures)",
							th.name, trefp, seed, p.Kind, len(got.Failures), len(want.Failures))
					}
					checked++
					if len(want.Failures) > 0 {
						failing++
					}
				}
				for _, w := range oracleWorkloads {
					got, err := m.ScanWorkload(w.mem, trefp, seed)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceScanWorkload(m, w.mem, trefp, seed)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s trefp=%v seed=%d %s: indexed workload scan differs from reference (%d vs %d failures)",
							th.name, trefp, seed, w.name, len(got.Failures), len(want.Failures))
					}
					checked++
					if len(want.Failures) > 0 {
						failing++
					}
				}
			}
		}
	}
	// The matrix must exercise failing scans, not only empty ones.
	if failing < checked/3 {
		t.Errorf("only %d of %d oracle scans had failures", failing, checked)
	}
}

// TestScanMatchesReferenceFullModule checks the calibrated 32 GB module at
// the paper's relaxed refresh period, where Table I and Fig. 8 live.
func TestScanMatchesReferenceFullModule(t *testing.T) {
	m := defaultModule(t)
	random, _ := NewPattern(RandomPattern)
	for _, tc := range []float64{30, 50, 60} {
		_ = m.SetAllTemps(tc)
		got, err := m.ScanPattern(random, 2283*time.Millisecond, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceScanPattern(m, random, 2283*time.Millisecond, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("%v degC random DPBench: indexed scan differs from reference", tc)
		}
		for _, w := range oracleWorkloads[:4] {
			got, err := m.ScanWorkload(w.mem, 2283*time.Millisecond, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceScanWorkload(m, w.mem, 2283*time.Millisecond, 1); !reflect.DeepEqual(got, want) {
				t.Errorf("%v degC %s: indexed workload scan differs from reference", tc, w.name)
			}
		}
	}
}

// lastFailing returns the largest x in [lo, hi) with fails(x), given
// fails(lo) and !fails(hi) and fails monotone, by bisection over the
// ordered bit patterns of positive floats.
func lastFailing(lo, hi float64, fails func(float64) bool) float64 {
	a, b := math.Float64bits(lo), math.Float64bits(hi)
	for b-a > 1 {
		mid := a + (b-a)/2
		if fails(math.Float64frombits(mid)) {
			a = mid
		} else {
			b = mid
		}
	}
	return math.Float64frombits(a)
}

// TestWorstCaseRet40IsConservative checks the prefilter bound against the
// exact test at its own worst case (full stress, fully sensitive VRT cell
// in its active state): the last failing retention lies strictly below it.
func TestWorstCaseRet40IsConservative(t *testing.T) {
	m := defaultModule(t)
	for _, tc := range []float64{-20, 0, 30, 40, 50, 60, 85, 120} {
		for _, trefp := range append(oracleTREFPs, time.Nanosecond, 7*time.Second+3) {
			bound := m.worstCaseRet40(trefp, tc)
			fails := func(r float64) bool {
				c := WeakCell{Ret40: r, CoupleSens: 1, VRT: true}
				return m.EffectiveRetention(c, tc, 1, true) < trefp.Seconds()
			}
			if fails(bound) {
				t.Fatalf("%v degC %v: cell at the bound fails the exact test", tc, trefp)
			}
			last := lastFailing(0, bound, fails)
			if last >= bound {
				t.Fatalf("%v degC %v: last failing retention %v not below bound %v", tc, trefp, last, bound)
			}
			// The slack stays tight: within 1e-11 of the exact edge.
			if (bound-last)/bound > 1e-11 {
				t.Errorf("%v degC %v: bound %v is loose against exact edge %v", tc, trefp, bound, last)
			}
		}
	}
}

// TestScanBoundaryCells hand-builds a fabric whose cells straddle both
// edges that matter: the exact failure edge of the all-1s pattern (the
// last failing retention and one ulp either side) and the prefilter
// bound itself (at it and one ulp either side). Bank 0 hides them among
// long-retention fillers so the sparse path serves it; bank 1 holds them
// alone so the linear walk does. Bank 2 holds only the six plain ones, too
// few for the bank to have an indexed share, and bank 3 only cells at and
// above the bound, so the scan rules it out from its minimum retention.
func TestScanBoundaryCells(t *testing.T) {
	cfg := smallConfig()
	g := cfg.Geometry
	m := &Module{cfg: cfg, dimmTempC: []float64{50}}
	trefp := 2283 * time.Millisecond
	p, _ := NewPattern(AllOnes)

	edge := lastFailing(0, m.worstCaseRet40(trefp, 50), func(r float64) bool {
		c := WeakCell{Ret40: r, TrueCell: true, CoupleSens: 1}
		return m.EffectiveRetention(c, 50, p.stress(0, &c, 0), false) < trefp.Seconds()
	})
	bound := m.worstCaseRet40(trefp, 50)
	rets := []float64{
		math.Nextafter(bound, math.Inf(1)), edge, bound, math.Nextafter(edge, 0),
		math.Nextafter(edge, math.Inf(1)), math.Nextafter(bound, 0),
	}
	boundary := func(row0 uint32, vrt bool) []WeakCell {
		var cells []WeakCell
		for i, r := range rets {
			cells = append(cells, WeakCell{Row: row0 + uint32(i), Ret40: r, TrueCell: true, CoupleSens: 1, VRT: vrt})
		}
		return cells
	}
	f := &fabric{devices: [][][]*device{{make([]*device, g.DevicesPerRank)}}}
	for vi := range f.devices[0][0] {
		f.devices[0][0][vi] = &device{banks: make([]bank, g.BanksPerDevice)}
	}
	var sparse []WeakCell
	for i := 0; i < 100; i++ {
		sparse = append(sparse, WeakCell{Row: 1000 + uint32(i), Ret40: 50 + float64(i)/10, TrueCell: true, CoupleSens: 1, VRT: i%3 == 0})
		if i == 40 {
			sparse = append(sparse, boundary(0, false)...)
			sparse = append(sparse, boundary(10, true)...)
		}
	}
	f.devices[0][0][0].banks[0].weak = sparse
	f.devices[0][0][0].banks[1].weak = append(boundary(0, false), boundary(10, true)...)
	f.devices[0][0][0].banks[2].weak = boundary(0, false)
	f.devices[0][0][0].banks[3].weak = []WeakCell{
		{Row: 20, Ret40: bound, TrueCell: true, CoupleSens: 1, VRT: true},
		{Row: 21, Ret40: math.Nextafter(bound, math.Inf(1)), TrueCell: true, CoupleSens: 1},
	}
	setFabric(m, f)

	for _, seed := range []uint64{1, 2, 3, 4} {
		got, err := m.ScanPattern(p, trefp, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceScanPattern(m, p, trefp, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: boundary scan differs from reference:\n got %v\nwant %v", seed, got.Failures, want.Failures)
		}
		// Without VRT exactly the edge cell and the one an ulp below it
		// fail, in each bank.
		plain := map[string]bool{}
		for _, fl := range got.Failures {
			if fl.Row < 10 {
				plain[fmt.Sprintf("b%d/%v", fl.Bank, rets[fl.Row])] = true
			}
		}
		for _, bi := range []int{0, 1, 2} {
			for _, r := range rets {
				want := r == edge || r == math.Nextafter(edge, 0)
				if plain[fmt.Sprintf("b%d/%v", bi, r)] != want {
					t.Errorf("seed %d bank %d: cell at Ret40=%v failed=%v, want %v", seed, bi, r, !want, want)
				}
			}
		}
	}
}

// TestScanIndexMatchesFullSort checks the selection-built retention index
// against the definition it replaces: sort every cell of the bank by
// (Ret40, index) and keep the lowest len/sparseShare. minRet, the VRT
// positions and the VRT ordinals are checked alongside.
func TestScanIndexMatchesFullSort(t *testing.T) {
	cfg := smallConfig()
	cfg.Geometry.RowsPerBank = 65536 // a full bank: ~400 cells, ~50 indexed
	for seed := uint64(1); seed <= 8; seed++ {
		f := fabricate(cfg, seed)
		idx := buildScanIndex(f)
		flat, vrtBase := 0, 0
		for _, ranks := range f.devices {
			for _, devs := range ranks {
				for _, dev := range devs {
					for bi, b := range dev.banks {
						order := make([]int32, len(b.weak))
						want := bankIndex{vrtBase: vrtBase, minRet: math.Inf(1)}
						for i, c := range b.weak {
							order[i] = int32(i)
							want.minRet = min(want.minRet, c.Ret40)
							if c.VRT {
								want.vrt = append(want.vrt, int32(i))
							}
						}
						sort.SliceStable(order, func(x, y int) bool {
							return b.weak[order[x]].Ret40 < b.weak[order[y]].Ret40
						})
						want.low = order[:len(order)/sparseShare]
						vrtBase += len(want.vrt)
						got := idx[flat]
						flat++
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d bank %d: index\n%+v\nwant\n%+v", seed, bi, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSelectLowest pins the quickselect on every k of slices of every
// length up to 40, including sorted, reversed and tied Ret40 values.
func TestSelectLowest(t *testing.T) {
	rng := xrand.New(11)
	for n := 0; n <= 40; n++ {
		for _, shape := range []string{"random", "sorted", "reversed", "ties"} {
			in := make([]retCell, n)
			for i := range in {
				switch shape {
				case "random":
					in[i].ret = rng.Float64()
				case "sorted":
					in[i].ret = float64(i)
				case "reversed":
					in[i].ret = float64(n - i)
				case "ties":
					in[i].ret = float64(rng.Intn(3))
				}
				in[i].i = int32(i)
			}
			sorted := slices.Clone(in)
			slices.SortFunc(sorted, retCell.compare)
			for k := 0; k <= n; k++ {
				got := selectLowest(slices.Clone(in), k)
				slices.SortFunc(got, retCell.compare)
				if !slices.Equal(got, sorted[:k]) {
					t.Fatalf("%s n=%d k=%d: got %v, want %v", shape, n, k, got, sorted[:k])
				}
			}
		}
	}
}

// TestConcurrentFirstScan races several Modules of a never-fetched
// (config, seed), each at its own temperature, to their first scan: they
// all ask the pool for the fabric and the fabric for its lazily built
// index at once. The pool must fabricate exactly once, and each result
// must equal a serial scan of an independently fabricated copy.
func TestConcurrentFirstScan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry.RowsPerBank = 8192
	const seed = 0x5ca7
	FabReset()
	temps := []float64{30, 45, 55, 60}
	mods := make([]*Module, len(temps))
	for i, tc := range temps {
		m, err := NewModule(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		_ = m.SetAllTemps(tc)
		mods[i] = m
	}

	random, _ := NewPattern(RandomPattern)
	work := oracleWorkloads[2].mem
	type out struct{ pat, wl *ScanResult }
	got := make([]out, len(mods))
	var wg sync.WaitGroup
	for i, m := range mods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pat, err1 := m.ScanPattern(random, 2283*time.Millisecond, 1)
			wl, err2 := m.ScanWorkload(work, 2283*time.Millisecond, 1)
			if err1 != nil || err2 != nil {
				t.Error(err1, err2)
			}
			got[i] = out{pat, wl}
		}()
	}
	wg.Wait()
	if n := FabStats().Misses; n != 1 {
		t.Fatalf("%d modules racing to their first scan fabricated %d times, want 1", len(mods), n)
	}
	for _, m := range mods[1:] {
		if m.fab != mods[0].fab {
			t.Fatal("modules of one (config, seed) do not share the pooled fabric")
		}
	}

	serial := &Module{cfg: cfg, dimmTempC: make([]float64, cfg.Geometry.DIMMs)}
	setFabric(serial, fabricate(cfg, seed))
	for i, tc := range temps {
		_ = serial.SetAllTemps(tc)
		pat, _ := serial.ScanPattern(random, 2283*time.Millisecond, 1)
		wl, _ := serial.ScanWorkload(work, 2283*time.Millisecond, 1)
		if !reflect.DeepEqual(got[i].pat, pat) || !reflect.DeepEqual(got[i].wl, wl) {
			t.Errorf("%v degC: concurrent first scan differs from serial scan", tc)
		}
	}
}

// TestScanMemoFollowsBounds walks one Module through the changes that
// move the per-DIMM bounds, and back, so each scan either misses the
// fabric's candidate list or hits one built at other settings' bounds:
// every result must equal the exhaustive reference. Two Modules of one
// fabric at different temperatures then scan concurrently, each replacing
// the list the other just built. Last, a 60 degC scan, where every cell is
// a candidate, must not leave a list longer than weakTotal/sparseShare.
func TestScanMemoFollowsBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry.RowsPerBank = 8192
	const seed = 0x3e30
	m, err := NewModule(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	random, _ := NewPattern(RandomPattern)
	check := func(m *Module, what string, trefp time.Duration, runSeed uint64) {
		for _, w := range oracleWorkloads[:4] {
			got, err := m.ScanWorkload(w.mem, trefp, runSeed)
			if err != nil {
				t.Error(err)
				return
			}
			if want := referenceScanWorkload(m, w.mem, trefp, runSeed); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: scan differs from reference (%d vs %d failures)", what, w.name, len(got.Failures), len(want.Failures))
			}
		}
		got, err := m.ScanPattern(random, trefp, runSeed)
		if err != nil {
			t.Error(err)
			return
		}
		if want := referenceScanPattern(m, random, trefp, runSeed); !reflect.DeepEqual(got, want) {
			t.Errorf("%s random DPBench: scan differs from reference", what)
		}
	}

	relaxed := 2283 * time.Millisecond
	_ = m.SetAllTemps(30)
	check(m, "30C", relaxed, 1)
	if cl := m.fab.cands.Load(); cl == nil || cl.dense || len(cl.list) == 0 {
		t.Fatal("30C scans kept no candidate list")
	}
	check(m, "30C again", relaxed, 2)
	_ = m.SetDIMMTemp(2, 55)
	check(m, "DIMM 2 at 55C", relaxed, 3)
	check(m, "DIMM 2 at 55C, 5s", 5*time.Second, 4)
	_ = m.SetDIMMTemp(2, 30)
	check(m, "back to 30C, 5s", 5*time.Second, 5)
	check(m, "back to 30C", relaxed, 6)

	other, err := NewModule(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	_ = other.SetAllTemps(50)
	var wg sync.WaitGroup
	for i, mod := range []*Module{m, other} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := uint64(0); r < 4; r++ {
				check(mod, fmt.Sprintf("concurrent module %d", i), relaxed, 10+r)
			}
		}()
	}
	wg.Wait()
	if m.fab != other.fab {
		t.Fatal("modules of one (config, seed) do not share the pooled fabric")
	}

	_ = m.SetAllTemps(60)
	check(m, "60C", relaxed, 7)
	limit := m.fab.weakTotal / sparseShare
	if cl := m.fab.cands.Load(); cl == nil {
		t.Error("60C scan left no entry on the fabric")
	} else if !cl.dense || len(cl.list) > limit {
		t.Errorf("60C scan left a list of %d candidates (dense %v), want a dense entry of at most %d", len(cl.list), cl.dense, limit)
	}
	check(m, "60C again", relaxed, 8)
}

// BenchmarkScanWorkload measures the nw workload scan at the paper's
// relaxed refresh period. At 30 degC ~45 cells are candidates and at
// 50 degC ~14k, both few enough that each scan after the first tests the
// fabric's kept candidate list. At 60 degC every materialized cell is a
// candidate, too many to keep, so each scan walks the retention index.
func BenchmarkScanWorkload(b *testing.B) {
	m, err := NewModule(DefaultConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	nw := oracleWorkloads[2].mem
	for _, tc := range []float64{30, 50, 60} {
		b.Run(fmt.Sprintf("%.0fC", tc), func(b *testing.B) {
			_ = m.SetAllTemps(tc)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = m.ScanWorkload(nw, 2283*time.Millisecond, uint64(i))
			}
		})
	}
}

// BenchmarkScanWorkloadWarmBoard measures the scans of the dram-refresh
// campaign shape: one warm board (seed 0x5EED_D4A3) at ambient 30 degC and
// the paper's 2283 ms refresh period, cycling through the four Rodinia
// profiles with a fresh run seed per scan. One scan before the timer
// fetches the fabric and builds its index, as the board's first campaign
// does.
func BenchmarkScanWorkloadWarmBoard(b *testing.B) {
	m, err := NewModule(DefaultConfig(), 0x5EED_D4A3)
	if err != nil {
		b.Fatal(err)
	}
	_ = m.SetAllTemps(30)
	rodinia := oracleWorkloads[:4]
	if _, err := m.ScanWorkload(rodinia[0].mem, 2283*time.Millisecond, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanSink, _ = m.ScanWorkload(rodinia[i%len(rodinia)].mem, 2283*time.Millisecond, uint64(i))
	}
}

// TestScanWorkloadAllocs bounds the allocations of the two scans the
// DRAM benchmarks time: the warm-board scan (BenchmarkScanWorkloadWarmBoard's
// board, temperature and Rodinia cycle) and the 30 degC nw scan
// (BenchmarkScanWorkload/30C), each after a first scan that fetches the
// fabric and keeps its candidate list. Each read 5 allocations per scan
// on Go 1.24 (the run's random streams and the result). The bound has no
// slack: one more allocation per scan is the regression it exists to
// catch.
func TestScanWorkloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	const bound = 5
	var rodinia []WorkloadMem
	for _, w := range oracleWorkloads[:4] {
		rodinia = append(rodinia, w.mem)
	}
	for _, tc := range []struct {
		name string
		seed uint64
		mems []WorkloadMem
	}{
		{"warm-board", 0x5EED_D4A3, rodinia},
		{"nw-30C", 1, rodinia[2:3]},
	} {
		m, err := NewModule(DefaultConfig(), tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetAllTemps(30); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ScanWorkload(tc.mems[0], 2283*time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			i++
			if _, err := m.ScanWorkload(tc.mems[i%len(tc.mems)], 2283*time.Millisecond, uint64(i)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs per scan", tc.name, allocs)
		if allocs > bound {
			t.Errorf("%s scan allocates %.1f objects, want <= %d", tc.name, allocs, bound)
		}
	}
}

func TestPerDIMMFailures(t *testing.T) {
	r := &ScanResult{Failures: []CellAddr{
		{DIMM: 0}, {DIMM: 0}, {DIMM: 2}, {DIMM: 3},
	}}
	got := r.PerDIMMFailures(4)
	want := []int{2, 0, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dimm %d count = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanFailuresMonotoneInTREFP(t *testing.T) {
	// Property over the ladder: a longer refresh period can only expose a
	// superset of weak cells (with fixed VRT state).
	m := defaultModule(t)
	_ = m.SetAllTemps(55)
	p, _ := NewPattern(RandomPattern)
	prev := -1
	for _, trefp := range []time.Duration{
		200 * time.Millisecond, 800 * time.Millisecond,
		2283 * time.Millisecond, 6 * time.Second,
	} {
		res, err := m.ScanPattern(p, trefp, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failures) < prev {
			t.Fatalf("failures decreased at %v: %d < %d", trefp, len(res.Failures), prev)
		}
		prev = len(res.Failures)
	}
}

// TestScanPatternVRTFlicker: VRT cells toggle between retention states, so
// two scans at identical conditions with different run seeds fail
// slightly different cell sets, while the same run seed repeats its set.
func TestScanPatternVRTFlicker(t *testing.T) {
	m := defaultModule(t)
	if err := m.SetAllTemps(60); err != nil {
		t.Fatal(err)
	}
	p, _ := NewPattern(RandomPattern)
	scan := func(seed uint64) []CellAddr {
		t.Helper()
		res, err := m.ScanPattern(p, 2283*time.Millisecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res.Failures
	}
	a, b := scan(100), scan(101)
	if !reflect.DeepEqual(a, scan(100)) {
		t.Error("same run seed produced a different failure set")
	}
	inA := make(map[CellAddr]bool, len(a))
	for _, c := range a {
		inA[c] = true
	}
	inter := 0
	for _, c := range b {
		if inA[c] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		t.Fatal("no failures at 60 degC and 2283 ms")
	}
	if inter == union {
		t.Error("no VRT flicker across run seeds: identical failure sets")
	}
	if j := float64(inter) / float64(union); j < 0.90 {
		t.Errorf("failure sets overlap %.3f (|A∩B|/|A∪B|), want >= 0.90", j)
	}
}
