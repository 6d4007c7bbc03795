package dram

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func defaultModule(t *testing.T) *Module {
	t.Helper()
	m, err := NewModule(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// smallConfig returns a reduced geometry for fast unit tests that do not
// need the calibrated population.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry.DIMMs = 1
	cfg.Geometry.RanksPerDIMM = 1
	cfg.Geometry.RowsPerBank = 4096
	return cfg
}

func TestGeometryDefaults(t *testing.T) {
	g := DefaultConfig().Geometry
	if g.Devices() != 72 {
		t.Errorf("device count = %d, want 72 (the paper's chip population)", g.Devices())
	}
	// 64 data devices * 4Gbit = 32 GB of data plus 8 ECC devices.
	dataBits := int64(g.DIMMs*g.RanksPerDIMM*(g.DevicesPerRank-1)) *
		int64(g.BanksPerDevice) * g.BitsPerBank()
	if dataBits != 32*8<<30 {
		t.Errorf("data capacity = %d bits, want 32GB", dataBits)
	}
	if g.BitsPerBank() != int64(65536)*1024*8 {
		t.Errorf("bits per bank = %d", g.BitsPerBank())
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Geometry.DIMMs = 0 },
		func(c *Config) { c.Geometry.DevicesPerRank = 8 }, // 64-bit rank, no SECDED
		func(c *Config) { c.Retention.DensityA = 0 },
		func(c *Config) { c.Retention.Beta = -1 },
		func(c *Config) { c.Retention.VRTFraction = 1.5 },
		func(c *Config) { c.Retention.VRTFactor = 0.5 },
		func(c *Config) { c.NominalTREFP = 0 },
	}
	for i, mod := range bads {
		c := DefaultConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFabDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := NewModule(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModule(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.WeakCellCount() != b.WeakCellCount() {
		t.Fatalf("same seed fabbed %d vs %d weak cells", a.WeakCellCount(), b.WeakCellCount())
	}
	c, err := NewModule(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.WeakCellCount() == c.WeakCellCount() {
		t.Log("different seeds produced same count (possible but unlikely)")
	}

	// Devices are fabricated in parallel: the fabric must not depend on
	// how many goroutines built it. Two DIMMs of two ranks exercise every
	// coordinate of the device numbering.
	cfg.Geometry.DIMMs, cfg.Geometry.RanksPerDIMM = 2, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial := fabricate(cfg, 7)
	runtime.GOMAXPROCS(4)
	parallel := fabricate(cfg, 7)
	if serial.weakTotal != parallel.weakTotal {
		t.Fatalf("weak cells: %d at GOMAXPROCS 1, %d at 4", serial.weakTotal, parallel.weakTotal)
	}
	n := 0
	for di, ranks := range serial.devices {
		for ri, devs := range ranks {
			for vi, dev := range devs {
				for bi, bk := range dev.banks {
					if !reflect.DeepEqual(bk.weak, parallel.devices[di][ri][vi].banks[bi].weak) {
						t.Fatalf("dimm %d rank %d device %d bank %d differs between GOMAXPROCS 1 and 4", di, ri, vi, bi)
					}
					n += len(bk.weak)
				}
			}
		}
	}
	if n != serial.weakTotal {
		t.Fatalf("weakTotal %d, but the banks hold %d cells", serial.weakTotal, n)
	}
}

// setFabric gives m the fabric f in place of the pooled one; m must not
// have fetched its fabric yet.
func setFabric(m *Module, f *fabric) {
	m.fabOnce.Do(func() { m.fab = f })
}

// TestModuleFabricatesLazily pins when a Module touches the fab pool:
// construction, temperature control and the analytic failure bound never
// do; the first scan or WeakCellCount fetches the fabric exactly once, and
// what it fetches is the population an eager fabricate produces.
func TestModuleFabricatesLazily(t *testing.T) {
	cfg := smallConfig()
	FabReset()
	bad := cfg
	bad.Geometry.BitsPerCol = 4
	if _, err := NewModule(bad, 1); err == nil {
		t.Fatal("invalid config accepted by NewModule")
	}

	m, err := NewModule(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetAllTemps(50); err != nil {
		t.Fatal(err)
	}
	trefp := 2283 * time.Millisecond
	if m.ExpectedFailureUpperBound(trefp) <= 0 || m.Config() != cfg {
		t.Fatal("analytic bound or config unusable before fabrication")
	}
	if n := FabStats().Misses; n != 0 {
		t.Fatalf("NewModule/SetAllTemps/ExpectedFailureUpperBound fabricated %d times, want 0", n)
	}

	eager := &Module{cfg: cfg, dimmTempC: []float64{50}}
	setFabric(eager, fabricate(cfg, 11))
	p, _ := NewPattern(RandomPattern)
	got, err := m.ScanPattern(p, trefp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := FabStats().Misses; n != 1 {
		t.Fatalf("first scan fabricated %d times, want 1", n)
	}
	want, _ := eager.ScanPattern(p, trefp, 3)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(m.fab.devices, eager.fab.devices) {
		t.Fatal("lazily fetched fabric differs from an eager fabricate")
	}
	if m.WeakCellCount() != eager.WeakCellCount() || FabStats().Misses != 1 {
		t.Fatal("WeakCellCount after the first scan refabricated or miscounted")
	}

	w, _ := NewModule(cfg, 12)
	n := w.WeakCellCount()
	if FabStats().Misses != 2 || n != fabricate(cfg, 12).weakTotal {
		t.Fatalf("first WeakCellCount: misses %d (want 2), count %d", FabStats().Misses, n)
	}
	if _, err := w.ScanPattern(p, trefp, 3); err != nil || FabStats().Misses != 2 {
		t.Fatalf("scan after WeakCellCount refabricated (misses %d, err %v)", FabStats().Misses, err)
	}
}

func TestSetDIMMTemp(t *testing.T) {
	m, err := NewModule(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetDIMMTemp(0, 55); err != nil {
		t.Fatal(err)
	}
	got, err := m.DIMMTemp(0)
	if err != nil || got != 55 {
		t.Errorf("DIMMTemp = %v, %v", got, err)
	}
	if err := m.SetDIMMTemp(9, 50); err == nil {
		t.Error("out-of-range DIMM accepted")
	}
	if err := m.SetDIMMTemp(0, 500); err == nil {
		t.Error("absurd temperature accepted")
	}
	if _, err := m.DIMMTemp(-1); err == nil {
		t.Error("negative DIMM index accepted")
	}
}

func TestEffectiveRetentionPhysics(t *testing.T) {
	m, err := NewModule(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cell := WeakCell{Ret40: 10, TrueCell: true, CoupleSens: 1}
	base := m.EffectiveRetention(cell, 40, 0, false)
	if math.Abs(base-10) > 1e-9 {
		t.Errorf("retention at reference temp = %v, want 10", base)
	}
	hot := m.EffectiveRetention(cell, 50, 0, false)
	if hot >= base {
		t.Error("retention must shrink with temperature")
	}
	// Calibration: ~e-fold every theta degrees => 10 degC is ~1/3.15.
	if ratio := base / hot; ratio < 2.8 || ratio > 3.5 {
		t.Errorf("10degC acceleration ratio = %v, want ~3.15", ratio)
	}
	stressed := m.EffectiveRetention(cell, 40, 1, false)
	if stressed >= base {
		t.Error("coupling stress must shrink retention")
	}
	vrtCell := WeakCell{Ret40: 10, VRT: true, CoupleSens: 0}
	vrtOn := m.EffectiveRetention(vrtCell, 40, 0, true)
	vrtOff := m.EffectiveRetention(vrtCell, 40, 0, false)
	if math.Abs(vrtOff/vrtOn-m.cfg.Retention.VRTFactor) > 1e-9 {
		t.Errorf("VRT factor = %v, want %v", vrtOff/vrtOn, m.cfg.Retention.VRTFactor)
	}
	// Non-VRT cells ignore the VRT state.
	if m.EffectiveRetention(cell, 40, 0, true) != base {
		t.Error("non-VRT cell affected by VRT state")
	}
}

func TestNominalRefreshIsSafe(t *testing.T) {
	// The guardband: at the manufacturer's 64 ms refresh and operating
	// temperature, essentially nothing fails, and whatever does is a CE.
	m := defaultModule(t)
	if err := m.SetAllTemps(50); err != nil {
		t.Fatal(err)
	}
	p, _ := NewPattern(RandomPattern)
	res, err := m.ScanPattern(p, 64*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) > 2 {
		t.Errorf("nominal refresh manifested %d failures, want ~0", len(res.Failures))
	}
	if res.UE != 0 || res.SDC != 0 {
		t.Errorf("nominal refresh produced UE=%d SDC=%d", res.UE, res.SDC)
	}
}

func TestTableICalibration50C(t *testing.T) {
	// Table I at 50 degC: unique error locations per bank in the low
	// hundreds (paper: 163-230) under 35x relaxed refresh.
	m := defaultModule(t)
	if err := m.SetAllTemps(50); err != nil {
		t.Fatal(err)
	}
	p, _ := NewPattern(RandomPattern)
	res, err := m.ScanPattern(p, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	for b, n := range res.PerBank {
		if n < 120 || n > 320 {
			t.Errorf("bank %d: %d unique locations at 50C, want 120-320", b, n)
		}
	}
	// All manifested errors corrected by SECDED (the paper's key claim).
	if res.UE != 0 || res.SDC != 0 {
		t.Errorf("50C scan produced UE=%d SDC=%d, want 0/0", res.UE, res.SDC)
	}
	if res.CE == 0 {
		t.Error("expected correctable errors at relaxed refresh")
	}
}

func TestTableICalibration60C(t *testing.T) {
	// Table I at 60 degC: ~17x more weak locations (paper: 3293-3842).
	m := defaultModule(t)
	if err := m.SetAllTemps(60); err != nil {
		t.Fatal(err)
	}
	p, _ := NewPattern(RandomPattern)
	res, err := m.ScanPattern(p, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for b, n := range res.PerBank {
		if n < 2600 || n > 4800 {
			t.Errorf("bank %d: %d unique locations at 60C, want 2600-4800", b, n)
		}
		total += n
	}
	if res.UE != 0 || res.SDC != 0 {
		t.Errorf("60C scan produced UE=%d SDC=%d (paper: all corrected <= 60C)", res.UE, res.SDC)
	}
	// Temperature acceleration vs 50C should be roughly 17x.
	m2 := defaultModule(t)
	_ = m2.SetAllTemps(50)
	res50, err := m2.ScanPattern(p, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	total50 := len(res50.Failures)
	if total50 == 0 {
		t.Fatal("no failures at 50C")
	}
	ratio := float64(total) / float64(total50)
	if ratio < 12 || ratio > 25 {
		t.Errorf("60C/50C failure ratio = %v, want ~17.6", ratio)
	}
}

func TestBankSpreadShrinksWithTemperature(t *testing.T) {
	// Paper: 41% bank-to-bank variation at 50C but only 16% at 60C —
	// Poisson noise dominates small counts.
	m := defaultModule(t)
	p, _ := NewPattern(RandomPattern)
	_ = m.SetAllTemps(50)
	res50, err := m.ScanPattern(p, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.SetAllTemps(60)
	res60, err := m.ScanPattern(p, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	s50, s60 := res50.UniqueBankSpread(), res60.UniqueBankSpread()
	if s50 <= s60 {
		t.Errorf("spread at 50C (%v) should exceed spread at 60C (%v)", s50, s60)
	}
	if s50 < 0.15 || s50 > 0.80 {
		t.Errorf("50C spread = %v, want in the tens of percent (paper 41%%)", s50)
	}
	if s60 < 0.04 || s60 > 0.35 {
		t.Errorf("60C spread = %v, want ~0.16", s60)
	}
}

func TestPatternOrdering(t *testing.T) {
	// Fig. 8a / Liu et al.: random DPBench yields the highest BER;
	// checkerboard beats the uniform patterns.
	m := defaultModule(t)
	if err := m.SetAllTemps(55); err != nil {
		t.Fatal(err)
	}
	counts := map[PatternKind]int{}
	for _, kind := range PatternKinds() {
		p, err := NewPattern(kind)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.ScanPattern(p, 2283*time.Millisecond, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts[kind] = len(res.Failures)
	}
	if counts[RandomPattern] <= counts[Checkerboard] {
		t.Errorf("random (%d) must beat checkerboard (%d)", counts[RandomPattern], counts[Checkerboard])
	}
	if counts[Checkerboard] <= counts[AllZeros] || counts[Checkerboard] <= counts[AllOnes] {
		t.Errorf("checkerboard (%d) must beat uniform patterns (%d, %d)",
			counts[Checkerboard], counts[AllZeros], counts[AllOnes])
	}
	// Uniform patterns stress complementary cell orientations and should
	// be within ~2x of each other.
	r := float64(counts[AllZeros]) / float64(counts[AllOnes])
	if r < 0.5 || r > 2.0 {
		t.Errorf("all0/all1 ratio = %v, want ~1", r)
	}
}

func TestScanErrors(t *testing.T) {
	m, err := NewModule(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPattern(RandomPattern)
	if _, err := m.ScanPattern(p, 0, 1); err == nil {
		t.Error("zero refresh period accepted")
	}
	if _, err := m.ScanPattern(Pattern{Kind: PatternKind(42), Rounds: 1}, time.Second, 1); err == nil {
		t.Error("invalid pattern accepted")
	}
	if _, err := m.ScanWorkload(WorkloadMem{}, time.Second, 1); err == nil {
		t.Error("zero footprint accepted")
	}
	if _, err := m.ScanWorkload(WorkloadMem{FootprintBytes: 1 << 30}, 0, 1); err == nil {
		t.Error("zero refresh period accepted for workload scan")
	}
}

func TestWorkloadScanImplicitRefresh(t *testing.T) {
	// A workload whose hot rows are re-accessed faster than the relaxed
	// refresh period must see fewer errors than one with no reuse.
	m := defaultModule(t)
	if err := m.SetAllTemps(60); err != nil {
		t.Fatal(err)
	}
	cold := WorkloadMem{
		FootprintBytes: 16 << 30,
		HotFraction:    0,
		RandomDataFrac: 0.8,
	}
	hot := cold
	hot.HotFraction = 0.9
	hot.ReuseInterval = 50 * time.Millisecond

	resCold, err := m.ScanWorkload(cold, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	resHot, err := m.ScanWorkload(hot, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resHot.Failures) >= len(resCold.Failures) {
		t.Errorf("implicit refresh did not help: hot=%d cold=%d",
			len(resHot.Failures), len(resCold.Failures))
	}
	if len(resCold.Failures) == 0 {
		t.Error("cold workload at 60C should manifest errors")
	}
}

func TestWorkloadBERBelowRandomDPBench(t *testing.T) {
	// Paper: real workloads incur less BER than the random DPBench virus.
	m := defaultModule(t)
	if err := m.SetAllTemps(60); err != nil {
		t.Fatal(err)
	}
	p, _ := NewPattern(RandomPattern)
	dp, err := m.ScanPattern(p, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	app := WorkloadMem{
		FootprintBytes: 8 << 30,
		HotFraction:    0.5,
		ReuseInterval:  200 * time.Millisecond,
		RandomDataFrac: 0.6,
	}
	res, err := m.ScanWorkload(app, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BER >= dp.BER {
		t.Errorf("workload BER %v should be below random DPBench BER %v", res.BER, dp.BER)
	}
}

func TestWorkloadFootprintScalesErrors(t *testing.T) {
	m := defaultModule(t)
	if err := m.SetAllTemps(60); err != nil {
		t.Fatal(err)
	}
	small := WorkloadMem{FootprintBytes: 2 << 30, RandomDataFrac: 0.8}
	big := WorkloadMem{FootprintBytes: 24 << 30, RandomDataFrac: 0.8}
	rs, err := m.ScanWorkload(small, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := m.ScanWorkload(big, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Failures) <= len(rs.Failures) {
		t.Errorf("larger footprint should expose more weak cells: %d vs %d",
			len(rb.Failures), len(rs.Failures))
	}
}

func TestScanDeterministicPerSeed(t *testing.T) {
	m := defaultModule(t)
	_ = m.SetAllTemps(55)
	p, _ := NewPattern(RandomPattern)
	a, err := m.ScanPattern(p, 2283*time.Millisecond, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.ScanPattern(p, 2283*time.Millisecond, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same run seed produced different pattern scan results")
	}
	w := WorkloadMem{FootprintBytes: 8 << 30, HotFraction: 0.1, ReuseInterval: 800 * time.Millisecond, RandomDataFrac: 0.6}
	wa, err := m.ScanWorkload(w, 2283*time.Millisecond, 9)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := m.ScanWorkload(w, 2283*time.Millisecond, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wa, wb) {
		t.Error("same run seed produced different workload scan results")
	}
}

func TestUniqueBankSpread(t *testing.T) {
	r := &ScanResult{PerBank: []int{100, 141}}
	if got := r.UniqueBankSpread(); math.Abs(got-0.41) > 1e-9 {
		t.Errorf("spread = %v, want 0.41", got)
	}
	if (&ScanResult{}).UniqueBankSpread() != 0 {
		t.Error("empty result spread should be 0")
	}
	if (&ScanResult{PerBank: []int{0, 5}}).UniqueBankSpread() != 0 {
		t.Error("zero-min spread should be 0")
	}
}

func TestPatternValidateAndNames(t *testing.T) {
	for _, k := range PatternKinds() {
		p, err := NewPattern(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if _, err := NewPattern(PatternKind(0)); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := (Pattern{Kind: AllZeros, Rounds: 0}).Validate(); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestCellAddrString(t *testing.T) {
	a := CellAddr{DIMM: 1, Rank: 0, Device: 3, Bank: 5, Row: 100, Col: 7, Bit: 2}
	if a.String() != "dimm1.r0.d3.b5[row=100 col=7 bit=2]" {
		t.Errorf("CellAddr format = %q", a.String())
	}
}

func BenchmarkScanPatternRandom(b *testing.B) { benchScanPatternRandom(b, 50) }

func BenchmarkScanPatternRandom30C(b *testing.B) { benchScanPatternRandom(b, 30) }

func BenchmarkScanPatternRandom60C(b *testing.B) { benchScanPatternRandom(b, 60) }

// benchScanPatternRandom scans the full module with the 8-round random
// DPBench at the paper's relaxed refresh period and the given temperature.
func benchScanPatternRandom(b *testing.B, tempC float64) {
	m, err := NewModule(DefaultConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = m.SetAllTemps(tempC)
	p, _ := NewPattern(RandomPattern)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.ScanPattern(p, 2283*time.Millisecond, uint64(i))
	}
}

// Benchmark results land here so the measured calls cannot be elided.
var (
	fabSink   *fabric
	indexSink []bankIndex
	scanSink  *ScanResult
)

// BenchmarkFabricate fabricates the paper's full memory system on a fresh
// seed per op, bypassing the fab pool.
func BenchmarkFabricate(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fabSink = fabricate(cfg, uint64(i))
	}
}

// BenchmarkBuildScanIndex builds the retention index of one full fabric.
func BenchmarkBuildScanIndex(b *testing.B) {
	f := fabricate(DefaultConfig(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = buildScanIndex(f)
	}
}

func TestExpectedFailureUpperBound(t *testing.T) {
	m := defaultModule(t)
	// Ambient + nominal refresh: the bound must be negligible (this is
	// what lets CPU campaigns skip the cell scan).
	_ = m.SetAllTemps(30)
	if b := m.ExpectedFailureUpperBound(64 * time.Millisecond); b > 0.01 {
		t.Errorf("ambient nominal bound = %v, want < 0.01", b)
	}
	// Hot + relaxed: the bound must dominate the actual failure count.
	_ = m.SetAllTemps(60)
	bound := m.ExpectedFailureUpperBound(2283 * time.Millisecond)
	p, _ := NewPattern(RandomPattern)
	res, err := m.ScanPattern(p, 2283*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(res.Failures)) > bound {
		t.Errorf("actual failures %d exceed upper bound %v", len(res.Failures), bound)
	}
	// The bound must respect the hottest DIMM, not the average.
	_ = m.SetAllTemps(30)
	_ = m.SetDIMMTemp(0, 60)
	if b := m.ExpectedFailureUpperBound(2283 * time.Millisecond); b < bound/8 {
		t.Errorf("single-hot-DIMM bound %v too low vs all-hot %v", b, bound)
	}
}
