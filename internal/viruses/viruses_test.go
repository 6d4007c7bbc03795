package viruses

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/silicon"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

func newServer(t *testing.T, corner silicon.Corner) *xgene.Server {
	t.Helper()
	srv, err := xgene.NewServer(xgene.Options{Corner: corner, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultDIdtConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	c := DefaultDIdtConfig()
	c.MinLen = 1
	if err := c.Validate(); err == nil {
		t.Error("MinLen 1 accepted")
	}
	c = DefaultDIdtConfig()
	c.MaxLen = c.MinLen - 1
	if err := c.Validate(); err == nil {
		t.Error("inverted length bounds accepted")
	}
	c = DefaultDIdtConfig()
	c.EMSamples = 0
	if err := c.Validate(); err == nil {
		t.Error("zero EM samples accepted")
	}
	c = DefaultDIdtConfig()
	c.Core = silicon.CoreID{PMD: 9}
	if err := c.Validate(); err == nil {
		t.Error("invalid core accepted")
	}
}

func TestCraftDIdtFindsResonantLoop(t *testing.T) {
	// The GA, guided only by (noisy) EM measurements, must discover a loop
	// with substantial resonant content — well above any real workload and
	// decisively above a uniform max-power loop's zero.
	srv := newServer(t, silicon.TTT)
	cfg := DefaultDIdtConfig()
	cfg.GA.Seed = 3
	res, err := CraftDIdt(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ResonanceQuality(srv, res.Loop, cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.55 {
		t.Errorf("virus resonance quality = %v, want > 0.55 of the ideal square wave", q)
	}
	// Convergence: final generations should beat the first.
	first := res.History[0].BestFitness
	last := res.History[len(res.History)-1].BestFitness
	if last <= first {
		t.Errorf("no fitness improvement: %v -> %v", first, last)
	}
}

func TestCraftDIdtVirusOutDroopsWorkloads(t *testing.T) {
	// Fig. 6 requires the crafted virus to droop more than every real
	// workload (so its Vmin is the highest).
	srv := newServer(t, silicon.TTT)
	cfg := DefaultDIdtConfig()
	cfg.GA.Seed = 3
	res, err := CraftDIdt(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := srv.LoopProfile("didt", res.Loop, cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	chip := srv.Chip()
	virusDroop := chip.DroopMV(profile.DroopInput(1))
	for _, w := range workloads.NASSuite() {
		if wd := chip.DroopMV(w.DroopInput(1)); wd >= virusDroop {
			t.Errorf("NAS %s droop %v >= virus droop %v", w.Name, wd, virusDroop)
		}
	}
}

func TestCraftDIdtErrors(t *testing.T) {
	if _, err := CraftDIdt(nil, DefaultDIdtConfig()); err == nil {
		t.Error("nil server accepted")
	}
	srv := newServer(t, silicon.TTT)
	bad := DefaultDIdtConfig()
	bad.GA.PopulationSize = 0
	if _, err := CraftDIdt(srv, bad); err == nil {
		t.Error("invalid GA config accepted")
	}
}

func TestCacheVirusProfiles(t *testing.T) {
	for _, lvl := range []CacheLevel{L1I, L1D, L2, L3} {
		p, err := CacheVirus(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%v: %v", lvl, err)
		}
		if !p.CacheStress {
			t.Errorf("%v virus not cache-stressing", lvl)
		}
		if lvl.String() == "" {
			t.Errorf("level %d has no name", lvl)
		}
	}
	if _, err := CacheVirus(CacheLevel(99)); err == nil {
		t.Error("unknown level accepted")
	}
	// Footprint ordering: L1 < L2 < L3 viruses.
	l1, _ := CacheVirus(L1D)
	l2, _ := CacheVirus(L2)
	l3, _ := CacheVirus(L3)
	if !(l1.Stream.FootprintBytes < l2.Stream.FootprintBytes &&
		l2.Stream.FootprintBytes < l3.Stream.FootprintBytes) {
		t.Error("cache virus footprints not ordered by level")
	}
}

func TestALUVirusProfiles(t *testing.T) {
	for _, kind := range []string{"int", "fp"} {
		p, err := ALUVirus(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		if p.CacheStress {
			t.Errorf("%s ALU virus should not stress caches", kind)
		}
	}
	if _, err := ALUVirus("quantum"); err == nil {
		t.Error("unknown kind accepted")
	}
	// The FP virus must draw more current than the int virus.
	fp, _ := ALUVirus("fp")
	iv, _ := ALUVirus("int")
	if fp.AvgCurrentA() <= iv.AvgCurrentA() {
		t.Error("FP virus should out-draw int virus")
	}
}

func TestALUVirusFailsByCrashOnly(t *testing.T) {
	// Attribution: an ALU virus undervolted into the SRAM lead band must
	// NOT produce cache errors; it crashes only once logic fails.
	srv := newServer(t, silicon.TTT)
	fp, err := ALUVirus("fp")
	if err != nil {
		t.Fatal(err)
	}
	id := srv.Chip().MostRobustCore()
	for v := 0.980; v >= 0.80 && srv.Booted(); v -= 0.002 {
		if err := srv.SetPMDVoltage(v); err != nil {
			t.Fatal(err)
		}
		res, err := srv.Run(xgene.RunSpec{Workload: fp, Cores: []silicon.CoreID{id}, Seed: uint64(v * 1e5)})
		if err != nil {
			t.Fatal(err)
		}
		switch res.Outcome {
		case xgene.OutcomeCE, xgene.OutcomeUE, xgene.OutcomeSDC:
			t.Fatalf("ALU virus produced cache-style outcome %v at %v", res.Outcome, v)
		}
	}
	if srv.Booted() {
		t.Error("ALU virus descent never crashed")
	}
}

func TestClampLen(t *testing.T) {
	parent, _ := isa.NewLoop(isa.FPSIMD, isa.NOP)
	long := make([]isa.Class, 100)
	for i := range long {
		long[i] = isa.IntALU
	}
	if got := clampLen(long, 8, 64, parent); len(got) != 64 {
		t.Errorf("over-length clamp = %d, want 64", len(got))
	}
	short := []isa.Class{isa.IntALU}
	got := clampLen(short, 8, 64, parent)
	if len(got) != 8 {
		t.Errorf("under-length pad = %d, want 8", len(got))
	}
	for _, c := range got {
		if !c.Valid() {
			t.Error("padding produced invalid class")
		}
	}
}
