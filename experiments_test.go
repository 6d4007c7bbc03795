package guardband

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

func TestPublicSurface(t *testing.T) {
	srv, err := NewServer(TTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFramework(srv); err != nil {
		t.Fatal(err)
	}
	if _, err := Workload("mcf"); err != nil {
		t.Fatal(err)
	}
	if _, err := Workload("not-a-benchmark"); err == nil {
		t.Error("unknown workload accepted")
	}
	if len(workloads.All()) < 20 {
		t.Errorf("only %d workloads registered", len(workloads.All()))
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4SpecVminWorkers(DefaultSeed, 3, DefaultWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 30 {
		t.Fatalf("entries = %d, want 10 benchmarks x 3 chips", len(res.Entries))
	}
	// Paper ranges: TTT 860-885, TFF 870-885, TSS 870-900 mV.
	cases := []struct {
		chip             string
		lo, hi           float64
		loSlack, hiSlack float64
	}{
		{"TTT", 860, 885, 5, 5},
		{"TFF", 870, 885, 5, 5},
		{"TSS", 870, 900, 5, 5},
	}
	for _, c := range cases {
		lo, hi := res.Range(c.chip)
		if math.Abs(lo-c.lo) > c.loSlack {
			t.Errorf("%s Vmin low end = %v mV, paper %v", c.chip, lo, c.lo)
		}
		if math.Abs(hi-c.hi) > c.hiSlack {
			t.Errorf("%s Vmin high end = %v mV, paper %v", c.chip, hi, c.hi)
		}
	}
	// Headline: >= 18.4% (power) guardband on TTT and TFF, 15.7% on TSS.
	for _, e := range res.Entries {
		want := 18.0
		if e.Chip == "TSS" {
			want = 15.0
		}
		if e.GuardbandPct < want {
			t.Errorf("%s/%s guardband %.1f%% below paper's bound %.1f%%",
				e.Chip, e.Benchmark, e.GuardbandPct, want)
		}
	}
	// Workload trends consistent across chips: mcf lowest everywhere,
	// cactusADM highest everywhere.
	for _, chip := range []string{"TTT", "TFF", "TSS"} {
		var mcf, cactus float64
		lo, hi := res.Range(chip)
		for _, e := range res.Entries {
			if e.Chip != chip {
				continue
			}
			switch e.Benchmark {
			case "mcf":
				mcf = e.VminMV
			case "cactusADM":
				cactus = e.VminMV
			}
		}
		if mcf != lo {
			t.Errorf("%s: mcf (%v) is not the minimum (%v)", chip, mcf, lo)
		}
		if cactus != hi {
			t.Errorf("%s: cactusADM (%v) is not the maximum (%v)", chip, cactus, hi)
		}
	}
	if !strings.Contains(res.Table().String(), "mcf") {
		t.Error("table rendering missing rows")
	}
}

func TestFig5Ladder(t *testing.T) {
	res, err := Fig5TradeoffWorkers(DefaultSeed, 3, DefaultWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 5 {
		t.Fatalf("steps = %d, want 5", len(res.Steps))
	}
	// Paper ladder: (915, 87.2%), (900, 73.8%), (885, 61.2%), (875, 49.8%).
	wantV := []float64{915, 900, 885, 875}
	wantP := []float64{87.2, 73.8, 61.2, 49.8}
	for k := 0; k < 4; k++ {
		s := res.Steps[k]
		if math.Abs(s.SafeVminMV-wantV[k]) > 5 {
			t.Errorf("step %d: safe Vmin %v mV, paper %v", k, s.SafeVminMV, wantV[k])
		}
		if math.Abs(s.PowerPct-wantP[k]) > 2.5 {
			t.Errorf("step %d: power %v%%, paper %v%%", k, s.PowerPct, wantP[k])
		}
	}
	// Performance steps 100, 87.5, 75, 62.5, 50.
	for k, want := range []float64{100, 87.5, 75, 62.5, 50} {
		if math.Abs(res.Steps[k].PerfPct-want) > 0.01 {
			t.Errorf("step %d: perf %v%%, want %v%%", k, res.Steps[k].PerfPct, want)
		}
	}
	// Headlines: predictor point ~12.8% savings, max highlighted ~38.8%.
	if math.Abs(res.PredictorSavingsPct-12.8) > 2.5 {
		t.Errorf("predictor savings %v%%, paper 12.8%%", res.PredictorSavingsPct)
	}
	if math.Abs(res.MaxSavingsPct-38.8) > 2.5 {
		t.Errorf("max savings %v%%, paper 38.8%%", res.MaxSavingsPct)
	}
	// Voltage and power must be monotone down the ladder.
	for k := 1; k < len(res.Steps); k++ {
		if res.Steps[k].SafeVminMV >= res.Steps[k-1].SafeVminMV {
			t.Errorf("ladder voltage not decreasing at step %d", k)
		}
		if res.Steps[k].PowerPct >= res.Steps[k-1].PowerPct {
			t.Errorf("ladder power not decreasing at step %d", k)
		}
	}
}

func TestFig6VirusHighest(t *testing.T) {
	res, err := Fig6VirusVsNASWorkers(DefaultSeed, 3, DefaultWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NAS) != 8 {
		t.Fatalf("NAS entries = %d, want 8", len(res.NAS))
	}
	// Paper: the EM virus has the highest Vmin of all workloads.
	for _, e := range res.NAS {
		if e.VminMV >= res.Virus.VminMV {
			t.Errorf("NAS %s Vmin %v >= virus %v", e.Name, e.VminMV, res.Virus.VminMV)
		}
	}
	// Virus Vmin on TTT should sit near 920 mV (60 mV margin, Fig. 7).
	if math.Abs(res.Virus.VminMV-920) > 7.5 {
		t.Errorf("virus Vmin = %v mV, paper ~920", res.Virus.VminMV)
	}
	if res.VirusEMuV <= 0 || res.VirusLoop == "" {
		t.Error("virus metadata missing")
	}
	if !strings.Contains(res.Chart().String(), "EM virus") {
		t.Error("chart missing virus bar")
	}
}

func TestFig7Margins(t *testing.T) {
	res, err := Fig7InterChipWorkers(DefaultSeed, 3, DefaultWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %d, want 3 chips", len(res.Entries))
	}
	ttt, err := fig7Entry(res, "TTT")
	if err != nil {
		t.Fatal(err)
	}
	tff, err := fig7Entry(res, "TFF")
	if err != nil {
		t.Fatal(err)
	}
	tss, err := fig7Entry(res, "TSS")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: TTT 60 mV margin, TFF 20 mV, TSS ~zero (crash ~10 mV below
	// nominal, so at most one 5 mV step of margin).
	if math.Abs(ttt.MarginMV-60) > 7.5 {
		t.Errorf("TTT margin = %v mV, paper 60", ttt.MarginMV)
	}
	if math.Abs(tff.MarginMV-20) > 7.5 {
		t.Errorf("TFF margin = %v mV, paper 20", tff.MarginMV)
	}
	// Paper wording: the virus crashes TSS "just 10 mV below the nominal",
	// i.e. at most two 5 mV steps of margin.
	if tss.MarginMV > 10.5 {
		t.Errorf("TSS margin = %v mV, paper ~zero", tss.MarginMV)
	}
	if !strings.Contains(res.Table().String(), "TSS") {
		t.Error("table missing chips")
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1BankVariationWorkers(DefaultSeed, DefaultWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBank50) != 8 || len(res.PerBank60) != 8 {
		t.Fatal("expected 8 banks per temperature")
	}
	// Paper magnitudes: 163-230 per bank at 50C, 3293-3842 at 60C.
	for b, n := range res.PerBank50 {
		if n < 120 || n > 330 {
			t.Errorf("50C bank %d count %d outside paper magnitude", b, n)
		}
	}
	for b, n := range res.PerBank60 {
		if n < 2600 || n > 4900 {
			t.Errorf("60C bank %d count %d outside paper magnitude", b, n)
		}
	}
	// Spread shrinks with temperature (41% -> 16% in the paper).
	if res.Spread50 <= res.Spread60 {
		t.Errorf("spread50 %v <= spread60 %v", res.Spread50, res.Spread60)
	}
	if res.Spread60 > 0.35 {
		t.Errorf("60C spread %v implausibly large", res.Spread60)
	}
	if !res.AllCorrected {
		t.Error("SECDED did not correct all errors <= 60C (paper's key claim)")
	}
	if res.RegulationMaxDevC >= 1.0 {
		t.Errorf("thermal regulation deviation %v degC, paper < 1", res.RegulationMaxDevC)
	}
	if !strings.Contains(res.Table().String(), "50C") {
		t.Error("table rendering broken")
	}
}

func TestFig8aOrdering(t *testing.T) {
	res, err := Fig8aBERWorkers(DefaultSeed, DefaultWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DPBench) != 4 || len(res.Rodinia) != 4 {
		t.Fatal("expected 4 DPBenches and 4 Rodinia entries")
	}
	var randomBER float64
	for _, e := range res.DPBench {
		if e.Name == "random" {
			randomBER = e.BER
		}
	}
	// Paper: random DPBench has the highest BER of everything.
	for _, e := range append(append([]BEREntry{}, res.DPBench...), res.Rodinia...) {
		if e.Name != "random" && e.BER >= randomBER {
			t.Errorf("%s BER %v >= random DPBench %v", e.Name, e.BER, randomBER)
		}
	}
	// Paper: BER varies up to ~2.5x across the HPC applications.
	lo, hi := res.Rodinia[0].BER, res.Rodinia[0].BER
	for _, e := range res.Rodinia[1:] {
		if e.BER < lo {
			lo = e.BER
		}
		if e.BER > hi {
			hi = e.BER
		}
	}
	if lo <= 0 {
		t.Fatal("a Rodinia app shows zero BER at 60C/35x")
	}
	if ratio := hi / lo; ratio < 1.7 || ratio > 4.5 {
		t.Errorf("Rodinia BER variation = %.2fx, paper ~2.5x", ratio)
	}
	if !res.AllCorrected {
		t.Error("ECC did not cover all Fig. 8a errors")
	}
}

func TestFig8bSavings(t *testing.T) {
	res, err := Fig8bRefreshPower()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := fig8bEntry(res, "nw")
	if err != nil {
		t.Fatal(err)
	}
	km, err := fig8bEntry(res, "kmeans")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nw.SavingsPct-27.3) > 1.5 {
		t.Errorf("nw savings %v%%, paper 27.3%%", nw.SavingsPct)
	}
	if math.Abs(km.SavingsPct-9.4) > 1.5 {
		t.Errorf("kmeans savings %v%%, paper 9.4%%", km.SavingsPct)
	}
	// nw max, kmeans min across the suite.
	for _, e := range res.Entries {
		if e.SavingsPct > nw.SavingsPct {
			t.Errorf("%s savings above nw", e.Name)
		}
		if e.SavingsPct < km.SavingsPct {
			t.Errorf("%s savings below kmeans", e.Name)
		}
	}
}

func TestFig9EndToEnd(t *testing.T) {
	res, err := Fig9JammerSavingsWorkers(DefaultSeed, DefaultWorkers)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 31.1 W -> 24.8 W, 20.2% total savings.
	if math.Abs(res.Nominal.TotalW-31.1) > 0.8 {
		t.Errorf("nominal total %v W, paper 31.1", res.Nominal.TotalW)
	}
	if math.Abs(res.Undervolted.TotalW-24.8) > 0.9 {
		t.Errorf("undervolted total %v W, paper 24.8", res.Undervolted.TotalW)
	}
	if math.Abs(res.TotalSavings-0.202) > 0.02 {
		t.Errorf("total savings %v, paper 0.202", res.TotalSavings)
	}
	if math.Abs(res.PMDSavings-0.203) > 0.025 {
		t.Errorf("PMD savings %v, paper 0.203", res.PMDSavings)
	}
	if math.Abs(res.SoCSavings-0.069) > 0.02 {
		t.Errorf("SoC savings %v, paper 0.069", res.SoCSavings)
	}
	if math.Abs(res.DRAMSavings-0.333) > 0.025 {
		t.Errorf("DRAM savings %v, paper 0.333", res.DRAMSavings)
	}
	// No disruption and QoS respected.
	if res.UndervoltedOutcome != "OK" {
		t.Errorf("undervolted run outcome %q", res.UndervoltedOutcome)
	}
	if res.Recall < 0.9 || !res.DeadlineMet {
		t.Errorf("QoS broken: recall %v deadline %v", res.Recall, res.DeadlineMet)
	}
	if !strings.Contains(res.Table().String(), "total") {
		t.Error("table rendering broken")
	}
}

func TestStencilScheduling(t *testing.T) {
	res, err := StencilScheduling(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineMaxInterval <= RelaxedTREFP {
		t.Skip("baseline already under TREFP; scenario mis-sized")
	}
	if !res.MeetsTREFP {
		t.Errorf("tiled interval %v exceeds TREFP %v", res.TiledMaxInterval, RelaxedTREFP)
	}
	if res.TiledErrors >= res.BaselineErrors {
		t.Errorf("scheduling did not reduce errors: %d -> %d",
			res.BaselineErrors, res.TiledErrors)
	}
	if res.BaselineErrors == 0 {
		t.Error("baseline shows no errors; case study vacuous")
	}
	if res.TiledMaxInterval <= 0 || res.TiledMaxInterval >= res.BaselineMaxInterval {
		t.Error("interval accounting inconsistent")
	}
	_ = time.Second
}

func TestFig4ShapeHoldsAcrossSeeds(t *testing.T) {
	// The calibration must describe the chip model, not one lucky board:
	// at other seeds the ranges may shift by a grid step but the shape
	// (ordering, guardband magnitude, inter-chip relations) must hold.
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	for _, seed := range []uint64{2, 3} {
		res, err := Fig4SpecVminWorkers(seed, 3, DefaultWorkers)
		if err != nil {
			t.Fatal(err)
		}
		for _, chip := range []string{"TTT", "TFF", "TSS"} {
			lo, hi := res.Range(chip)
			if lo < 850 || hi > 910 {
				t.Errorf("seed %d %s: range %v-%v outside plausible band", seed, chip, lo, hi)
			}
			if hi-lo < 10 || hi-lo > 40 {
				t.Errorf("seed %d %s: workload spread %v mV implausible", seed, chip, hi-lo)
			}
		}
		// Ordering across workloads is a model property, seed-free.
		for _, chip := range []string{"TTT", "TFF", "TSS"} {
			var mcf, cactus float64
			for _, e := range res.Entries {
				if e.Chip != chip {
					continue
				}
				switch e.Benchmark {
				case "mcf":
					mcf = e.VminMV
				case "cactusADM":
					cactus = e.VminMV
				}
			}
			if mcf >= cactus {
				t.Errorf("seed %d %s: mcf (%v) not below cactusADM (%v)", seed, chip, mcf, cactus)
			}
		}
	}
}

func TestFig9HoldsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	for _, seed := range []uint64{5, 9} {
		res, err := Fig9JammerSavingsWorkers(seed, DefaultWorkers)
		if err != nil {
			t.Fatal(err)
		}
		if res.UndervoltedOutcome != "OK" {
			t.Errorf("seed %d: undervolted run disrupted (%s)", seed, res.UndervoltedOutcome)
		}
		if res.TotalSavings < 0.17 || res.TotalSavings > 0.24 {
			t.Errorf("seed %d: total savings %v outside band", seed, res.TotalSavings)
		}
	}
}

// fig7Entry returns the named chip's entry of a Fig. 7 result.
func fig7Entry(r Fig7Result, chip string) (Fig7Entry, error) {
	for _, e := range r.Entries {
		if e.Chip == chip {
			return e, nil
		}
	}
	return Fig7Entry{}, fmt.Errorf("no Fig. 7 entry for chip %q", chip)
}

// fig8bEntry returns the named benchmark's entry of a Fig. 8b result.
func fig8bEntry(r Fig8bResult, name string) (SavingsEntry, error) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, nil
		}
	}
	return SavingsEntry{}, fmt.Errorf("no Fig. 8b entry for %q", name)
}
