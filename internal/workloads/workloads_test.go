package workloads

import (
	"reflect"
	"testing"

	"repro/internal/silicon"
)

func TestAllProfilesValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestSuiteSizes(t *testing.T) {
	if n := len(SPEC2006()); n != 10 {
		t.Errorf("SPEC2006 has %d profiles, want 10 (Fig. 4)", n)
	}
	if n := len(NASSuite()); n != 8 {
		t.Errorf("NAS has %d profiles, want 8", n)
	}
	if n := len(RodiniaSuite()); n != 4 {
		t.Errorf("Rodinia has %d profiles, want 4 (Fig. 8)", n)
	}
	if n := len(Fig5Mix()); n != 8 {
		t.Errorf("Fig. 5 mix has %d profiles, want 8", n)
	}
}

func TestProfileNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range All() {
		if seen[p.Name] {
			t.Errorf("duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mcf" || p.Suite != SPEC {
		t.Errorf("ByName returned %+v", p)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	for _, want := range All() {
		if got, err := ByName(want.Name); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %+v, %v; want the All entry", want.Name, got, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName("jammer-detector") }); n != 0 {
		t.Errorf("ByName allocates %.0f objects per lookup, want 0", n)
	}
}

func TestSuiteString(t *testing.T) {
	for _, s := range []Suite{SPEC, NAS, Rodinia, Synthetic, Application} {
		if s.String() == "" {
			t.Errorf("suite %d has empty name", s)
		}
	}
	if Suite(99).String() == "" {
		t.Error("unknown suite should format")
	}
}

func TestSPECCurrentOrdering(t *testing.T) {
	// The Fig. 4 calibration: mcf draws the least current (memory-stalled)
	// and cactusADM the most (dense FP/SIMD).
	byName := map[string]Profile{}
	for _, p := range SPEC2006() {
		byName[p.Name] = p
	}
	mcf, cactus := byName["mcf"], byName["cactusADM"]
	for _, p := range SPEC2006() {
		if p.Name != "mcf" && p.AvgCurrentA() < mcf.AvgCurrentA() {
			t.Errorf("%s draws less current than mcf", p.Name)
		}
		if p.Name != "cactusADM" && p.AvgCurrentA() > cactus.AvgCurrentA() {
			t.Errorf("%s draws more current than cactusADM", p.Name)
		}
	}
	// The span must cover the ~25 mV Fig. 4 window under the 5.1 mV/A
	// droop constant: about 4-5 A of current spread.
	span := cactus.AvgCurrentA() - mcf.AvgCurrentA()
	if span < 4.0 || span > 6.0 {
		t.Errorf("SPEC current span = %v A, want ~4-5", span)
	}
}

func TestSPECCurrentBands(t *testing.T) {
	// Joint calibration with silicon: Vmin(TTT robust) = 848 + droop.
	// mcf must land below 860 mV total and cactusADM near 885 mV.
	byName := map[string]Profile{}
	for _, p := range SPEC2006() {
		byName[p.Name] = p
	}
	if a := byName["mcf"].AvgCurrentA(); a < 1.4 || a > 2.2 {
		t.Errorf("mcf avg current = %v A, want ~1.7", a)
	}
	if a := byName["cactusADM"].AvgCurrentA(); a < 6.5 || a > 7.3 {
		t.Errorf("cactusADM avg current = %v A, want ~6.9", a)
	}
}

func TestResonantContentFarBelowVirusReference(t *testing.T) {
	// Real workloads must not approach the dI/dt square-wave reference
	// (4.4 A); that headroom is exactly what Fig. 6 demonstrates.
	for _, p := range All() {
		if p.ResonantCurrentA > 1.0 {
			t.Errorf("%s resonant current %v A implausibly high", p.Name, p.ResonantCurrentA)
		}
	}
}

func TestDroopInput(t *testing.T) {
	p, _ := ByName("namd")
	in := p.DroopInput(8)
	if in.ActiveFastCores != 8 {
		t.Error("active core count not propagated")
	}
	if in.AvgCurrentA != p.AvgCurrentA() {
		t.Error("avg current not propagated")
	}
	if in.ResonantCurrentA != p.ResonantCurrentA {
		t.Error("resonant current not propagated")
	}
}

func TestFig5MixComposition(t *testing.T) {
	want := map[string]bool{
		"bwaves": true, "cactusADM": true, "dealII": true, "gromacs": true,
		"leslie3d": true, "mcf": true, "milc": true, "namd": true,
	}
	for _, p := range Fig5Mix() {
		if !want[p.Name] {
			t.Errorf("unexpected benchmark %q in Fig. 5 mix", p.Name)
		}
		delete(want, p.Name)
	}
	for n := range want {
		t.Errorf("missing benchmark %q in Fig. 5 mix", n)
	}
}

func TestRodiniaBandwidthOrdering(t *testing.T) {
	// Fig. 8b relies on nw being bandwidth-light (refresh-dominated DRAM
	// power) and kmeans bandwidth-heavy.
	byName := map[string]Profile{}
	for _, p := range RodiniaSuite() {
		byName[p.Name] = p
	}
	if !(byName["nw"].DRAMBandwidthGBs < byName["backprop"].DRAMBandwidthGBs &&
		byName["backprop"].DRAMBandwidthGBs < byName["kmeans"].DRAMBandwidthGBs) {
		t.Error("Rodinia bandwidth ordering nw < backprop < kmeans violated")
	}
	// nw has little row reuse; kmeans a lot (implicit refresh).
	if byName["nw"].Mem.HotFraction >= byName["kmeans"].Mem.HotFraction {
		t.Error("nw should have less hot reuse than kmeans")
	}
}

func TestJammerSafeUnderThirtyMV(t *testing.T) {
	// The Fig. 9 exploitation point: the jammer on all 8 cores of a TTT
	// chip must be safe at 930 mV (50 mV below nominal).
	chip, err := silicon.Fab(silicon.TTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := Jammer()
	droop := chip.DroopMV(p.DroopInput(silicon.NumCores))
	for _, id := range silicon.AllCores() {
		mode, err := chip.Evaluate(id, silicon.NominalFreqHz, 0.930, droop, p.CacheStress)
		if err != nil {
			t.Fatal(err)
		}
		if mode != silicon.NoFailure {
			t.Errorf("jammer at 930mV fails on %v with %v (droop %.1f mV)", id, mode, droop)
		}
	}
}

func TestProfileValidationCatchesBadProfiles(t *testing.T) {
	p, _ := ByName("mcf")
	p.Name = ""
	if err := p.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	p, _ = ByName("mcf")
	p.ResonantCurrentA = -1
	if err := p.Validate(); err == nil {
		t.Error("negative resonant current accepted")
	}
	p, _ = ByName("mcf")
	p.Duration = 0
	if err := p.Validate(); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestCloneIsolation(t *testing.T) {
	a := SPEC2006()
	a[0].Name = "mutated"
	b := SPEC2006()
	if b[0].Name == "mutated" {
		t.Error("SPEC2006 returns aliased storage")
	}
}
