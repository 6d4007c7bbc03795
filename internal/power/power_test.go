package power

import (
	"math"
	"testing"
	"time"

	"repro/internal/silicon"
	"repro/internal/workloads"
)

func tttChip(t *testing.T) *silicon.Chip {
	t.Helper()
	chip, err := silicon.Fab(silicon.TTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func jammerLoad() CoreLoad {
	return uniformLoad(workloads.Jammer().AvgCurrentA(), silicon.NominalFreqHz)
}

func TestFig9NominalTotal(t *testing.T) {
	// Paper: 31.1 W total for the jammer at nominal settings.
	chip := tttChip(t)
	b, err := Server(chip, Nominal(), jammerLoad(), workloads.Jammer().DRAMBandwidthGBs)
	if err != nil {
		t.Fatal(err)
	}
	if total := b.TotalW(); math.Abs(total-31.1) > 0.7 {
		t.Errorf("nominal jammer total = %.2f W, want ~31.1", total)
	}
}

func TestFig9UndervoltedSavings(t *testing.T) {
	// Paper: PMD 930 mV, SoC 920 mV, 35x TREFP => 24.8 W, 20.2% saved;
	// per-domain savings 20.3% (PMD), 6.9% (SoC), 33.3% (DRAM).
	chip := tttChip(t)
	load := jammerLoad()
	bw := workloads.Jammer().DRAMBandwidthGBs

	nom, err := Server(chip, Nominal(), load, bw)
	if err != nil {
		t.Fatal(err)
	}
	uv, err := Server(chip, OperatingPoint{
		PMDVoltage: 0.930,
		SoCVoltage: 0.920,
		TREFP:      35 * NominalTREFP,
	}, load, bw)
	if err != nil {
		t.Fatal(err)
	}

	if s := Savings(nom.PMDW, uv.PMDW); math.Abs(s-0.203) > 0.02 {
		t.Errorf("PMD savings = %.3f, want ~0.203", s)
	}
	if s := Savings(nom.SoCW, uv.SoCW); math.Abs(s-0.069) > 0.015 {
		t.Errorf("SoC savings = %.3f, want ~0.069", s)
	}
	if s := Savings(nom.DRAMW, uv.DRAMW); math.Abs(s-0.333) > 0.02 {
		t.Errorf("DRAM savings = %.3f, want ~0.333", s)
	}
	if s := Savings(nom.TotalW(), uv.TotalW()); math.Abs(s-0.202) > 0.02 {
		t.Errorf("total savings = %.3f, want ~0.202", s)
	}
	if math.Abs(uv.TotalW()-24.8) > 1.0 {
		t.Errorf("undervolted total = %.2f W, want ~24.8", uv.TotalW())
	}
}

func TestFig8bRefreshSavings(t *testing.T) {
	// Paper: 35x refresh relaxation saves 27.3% of DRAM power for nw and
	// 9.4% for kmeans; everything else in between.
	cases := []struct {
		name  string
		want  float64
		slack float64
	}{
		{"nw", 0.273, 0.02},
		{"kmeans", 0.094, 0.015},
		{"backprop", 0.168, 0.04},
		{"srad", 0.199, 0.04},
	}
	for _, c := range cases {
		p, err := workloads.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		nom, err := DRAMPowerW(NominalTREFP, p.DRAMBandwidthGBs)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := DRAMPowerW(35*NominalTREFP, p.DRAMBandwidthGBs)
		if err != nil {
			t.Fatal(err)
		}
		if s := Savings(nom, rel); math.Abs(s-c.want) > c.slack {
			t.Errorf("%s refresh savings = %.3f, want ~%.3f", c.name, s, c.want)
		}
	}
}

func TestFig5DynamicRatioLadder(t *testing.T) {
	// The Fig. 5 ladder labels: (V, slow PMD count) -> relative power.
	full := silicon.NominalFreqHz
	half := silicon.ReducedFreqHz
	cases := []struct {
		v    float64
		slow int
		want float64
	}{
		{0.980, 0, 1.000},
		{0.915, 0, 0.872},
		{0.900, 1, 0.738},
		{0.885, 2, 0.612},
		{0.875, 3, 0.498},
	}
	for _, c := range cases {
		var freqs [silicon.NumPMDs]float64
		for i := range freqs {
			if i < c.slow {
				freqs[i] = half
			} else {
				freqs[i] = full
			}
		}
		got := PMDDynamicRatio(c.v, freqs)
		if math.Abs(got-c.want) > 0.004 {
			t.Errorf("ratio(%.0f mV, %d slow) = %.3f, want %.3f", c.v*1000, c.slow, got, c.want)
		}
	}
}

func TestPMDPowerMonotoneInVoltage(t *testing.T) {
	chip := tttChip(t)
	load := jammerLoad()
	prev := 0.0
	for _, v := range []float64{0.76, 0.84, 0.90, 0.94, 0.98} {
		p, err := PMDPowerW(chip, v, load)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Errorf("PMD power not increasing with voltage at %v", v)
		}
		prev = p
	}
}

func TestPMDPowerLeakageCorners(t *testing.T) {
	// TFF (high leakage) must draw more than TTT, TSS less, same load.
	load := jammerLoad()
	var powers []float64
	for _, corner := range []silicon.Corner{silicon.TSS, silicon.TTT, silicon.TFF} {
		chip, err := silicon.Fab(corner, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PMDPowerW(chip, NominalVoltage, load)
		if err != nil {
			t.Fatal(err)
		}
		powers = append(powers, p)
	}
	if !(powers[0] < powers[1] && powers[1] < powers[2]) {
		t.Errorf("corner power ordering TSS<TTT<TFF violated: %v", powers)
	}
}

func TestIdleCoresCheaperThanBusy(t *testing.T) {
	chip := tttChip(t)
	busy := jammerLoad()
	idle := uniformLoad(IdleCoreCurrentA, silicon.NominalFreqHz)
	pb, err := PMDPowerW(chip, NominalVoltage, busy)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := PMDPowerW(chip, NominalVoltage, idle)
	if err != nil {
		t.Fatal(err)
	}
	if pi >= pb {
		t.Errorf("idle PMD power %v not below busy %v", pi, pb)
	}
}

func TestHalvingPMDFrequencyCutsDynamicPower(t *testing.T) {
	chip := tttChip(t)
	full := jammerLoad()
	slow := full
	for i := range slow.PMDFreqHz {
		slow.PMDFreqHz[i] = silicon.ReducedFreqHz
	}
	pf, _ := PMDPowerW(chip, NominalVoltage, full)
	ps, _ := PMDPowerW(chip, NominalVoltage, slow)
	if ps >= pf {
		t.Error("halving frequency did not reduce power")
	}
	// Leakage is frequency independent, so the cut is less than half.
	if ps < pf/2 {
		t.Error("power cut exceeds dynamic share; leakage missing")
	}
}

func TestDRAMPowerComponents(t *testing.T) {
	noTraffic, err := DRAMPowerW(NominalTREFP, 0)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := DRAMPowerW(NominalTREFP, 10)
	if err != nil {
		t.Fatal(err)
	}
	if traffic <= noTraffic {
		t.Error("bandwidth does not add DRAM power")
	}
	relaxed, err := DRAMPowerW(35*NominalTREFP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed >= noTraffic {
		t.Error("relaxed refresh does not cut DRAM power")
	}
	// Refresh power scales as 1/TREFP: the 35x relaxation removes 34/35
	// of the nominal refresh power.
	saved := noTraffic - relaxed
	if math.Abs(saved-3.02*34.0/35.0) > 0.01 {
		t.Errorf("refresh power saved = %v", saved)
	}
}

func TestErrorPaths(t *testing.T) {
	chip := tttChip(t)
	if _, err := PMDPowerW(chip, 0, jammerLoad()); err == nil {
		t.Error("zero voltage accepted")
	}
	bad := jammerLoad()
	bad.CurrentA[0] = -1
	if _, err := PMDPowerW(chip, NominalVoltage, bad); err == nil {
		t.Error("negative current accepted")
	}
	bad2 := jammerLoad()
	bad2.PMDFreqHz[0] = 0
	if _, err := PMDPowerW(chip, NominalVoltage, bad2); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := SoCPowerW(-1); err == nil {
		t.Error("negative SoC voltage accepted")
	}
	if _, err := DRAMPowerW(0, 1); err == nil {
		t.Error("zero TREFP accepted")
	}
	if _, err := DRAMPowerW(time.Second, -1); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := Server(chip, OperatingPoint{PMDVoltage: 1, SoCVoltage: 0, TREFP: time.Second}, jammerLoad(), 1); err == nil {
		t.Error("bad SoC point accepted")
	}
}

func TestSavingsGuard(t *testing.T) {
	if Savings(0, 5) != 0 {
		t.Error("zero-old savings should be 0")
	}
	if Savings(10, 5) != 0.5 {
		t.Error("Savings(10,5) != 0.5")
	}
}

// uniformLoad builds a CoreLoad with every core running code drawing
// currentA at the given frequency.
func uniformLoad(currentA, freqHz float64) CoreLoad {
	var l CoreLoad
	for i := range l.CurrentA {
		l.CurrentA[i] = currentA
	}
	for i := range l.PMDFreqHz {
		l.PMDFreqHz[i] = freqHz
	}
	return l
}
