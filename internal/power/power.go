// Package power models the X-Gene2 server's power by supply domain — PMD
// (the four core modules), SoC (uncore: CSW, L3, memory controllers, I/O),
// DRAM and "other" (fans, VRM losses, board) — as reported by the SLIMpro
// sensors in the paper.
//
// Calibration anchors (all from the paper's Fig. 8b and Fig. 9):
//   - Running 4 jammer-detector instances at nominal voltage the server
//     draws 31.1 W: 14.5 W PMD + 6.5 W SoC + 8.8 W DRAM + 1.3 W other.
//   - Dropping the PMD rail to 930 mV saves 20.3% of PMD power. Dynamic
//     power scales with V^2; leakage current falls exponentially with
//     voltage (DIBL), which is what makes a 5% voltage cut worth 20% power.
//   - Dropping the SoC rail to 920 mV saves 6.9%: most of the SoC domain
//     (PHYs, fixed-function I/O) does not scale with the tunable rail.
//   - Relaxing refresh 35x saves 33.3% of DRAM power under the jammer and
//     27.3%/9.4% under nw/kmeans (Fig. 8b): DRAM power is background +
//     refresh + access, and the refresh share depends on access intensity.
package power

import (
	"errors"
	"time"

	"repro/internal/silicon"
)

// Calibrated model constants (watts unless noted). See package comment.
const (
	// NominalVoltage is the nominal PMD/SoC rail.
	NominalVoltage = silicon.NominalVoltage

	// coreWattsPerVA converts the isa current model's amperes at the rail
	// voltage into dynamic watts (kI in the calibration notes).
	coreWattsPerVA = 0.2764
	// pmdLeakNominalW is TTT-chip PMD leakage at the nominal rail.
	pmdLeakNominalW = 4.83
	// leakV0 is the exponential leakage voltage scale (volts): leakage
	// current shrinks e-fold per leakV0 of undervolt.
	leakV0 = 0.105
	// IdleCoreCurrentA is the supply current of a clock-gated idle core.
	IdleCoreCurrentA = 0.6

	// SoC domain: fixed part plus rail-scalable dynamic and leakage parts.
	socFixedW   = 4.975
	socDynW     = 0.7625
	socLeakW    = 0.7625
	socNominalV = silicon.NominalVoltage

	// DRAM domain.
	dramBackgroundW   = 5.42
	dramRefreshW64ms  = 3.02 // refresh power at the nominal 64 ms TREFP
	dramAccessWPerGBs = 0.45

	// Board overhead.
	otherW = 1.3
)

// NominalTREFP is the manufacturer refresh period the DRAM refresh power
// is calibrated at.
const NominalTREFP = 64 * time.Millisecond

// CoreLoad describes what each core is doing for PMD power purposes.
type CoreLoad struct {
	// CurrentA is the average supply current of the code on each core
	// (0 or IdleCoreCurrentA for idle cores), in isa-model amperes at
	// 2.4 GHz.
	CurrentA [silicon.NumCores]float64
	// PMDFreqHz is each module's clock.
	PMDFreqHz [silicon.NumPMDs]float64
}

// Validate reports load errors.
func (l CoreLoad) Validate() error {
	for _, c := range l.CurrentA {
		if c < 0 {
			return errors.New("power: negative core current")
		}
	}
	for _, f := range l.PMDFreqHz {
		if f <= 0 {
			return errors.New("power: non-positive PMD frequency")
		}
	}
	return nil
}

// leakScale returns the leakage power ratio at rail voltage v relative to
// nominal: the V*I product with exponentially voltage-dependent current.
func leakScale(v float64) float64 {
	return (v / NominalVoltage) * expApprox((v-NominalVoltage)/leakV0)
}

// expApprox wraps math.Exp; indirection keeps the calibration-sensitive
// call sites greppable.
func expApprox(x float64) float64 { return exp(x) }

// PMDPowerW returns the PMD-domain power for a chip at rail voltage v
// under the given load. Dynamic power scales as V^2 and per-PMD frequency;
// leakage scales with the chip's corner leakage factor and the exponential
// voltage law.
func PMDPowerW(chip *silicon.Chip, v float64, load CoreLoad) (float64, error) {
	if v <= 0 {
		return 0, errors.New("power: non-positive voltage")
	}
	if err := load.Validate(); err != nil {
		return 0, err
	}
	var dyn float64
	for i, c := range load.CurrentA {
		fRatio := load.PMDFreqHz[i/silicon.CoresPerPMD] / silicon.NominalFreqHz
		dyn += coreWattsPerVA * v * c * (v / NominalVoltage) * fRatio
	}
	leak := pmdLeakNominalW * chip.LeakageFactor * leakScale(v)
	return dyn + leak, nil
}

// PMDDynamicRatio returns the PMD dynamic-power ratio (V/Vn)^2 * mean
// per-PMD frequency ratio — the metric behind the Fig. 5 ladder labels
// (87.2% at 915 mV, 61.2% at 885 mV with two PMDs halved, ...).
func PMDDynamicRatio(v float64, pmdFreqHz [silicon.NumPMDs]float64) float64 {
	var fSum float64
	for _, f := range pmdFreqHz {
		fSum += f / silicon.NominalFreqHz
	}
	vr := v / NominalVoltage
	return vr * vr * fSum / silicon.NumPMDs
}

// SoCPowerW returns the SoC (uncore) domain power at its rail voltage.
func SoCPowerW(v float64) (float64, error) {
	if v <= 0 {
		return 0, errors.New("power: non-positive voltage")
	}
	vr := v / socNominalV
	return socFixedW + socDynW*vr*vr + socLeakW*leakScale(v), nil
}

// DRAMPowerW returns the DRAM domain power at a refresh period and a
// sustained access bandwidth. Refresh power scales inversely with TREFP.
func DRAMPowerW(trefp time.Duration, bandwidthGBs float64) (float64, error) {
	if trefp <= 0 {
		return 0, errors.New("power: non-positive refresh period")
	}
	if bandwidthGBs < 0 {
		return 0, errors.New("power: negative bandwidth")
	}
	refresh := dramRefreshW64ms * float64(NominalTREFP) / float64(trefp)
	return dramBackgroundW + refresh + dramAccessWPerGBs*bandwidthGBs, nil
}

// Breakdown is the per-domain server power (watts), Fig. 9's view.
type Breakdown struct {
	PMDW, SoCW, DRAMW, OtherW float64
}

// TotalW returns the whole-server power.
func (b Breakdown) TotalW() float64 { return b.PMDW + b.SoCW + b.DRAMW + b.OtherW }

// OperatingPoint bundles the tunable server knobs.
type OperatingPoint struct {
	PMDVoltage float64
	SoCVoltage float64
	TREFP      time.Duration
}

// Nominal returns the manufacturer operating point.
func Nominal() OperatingPoint {
	return OperatingPoint{
		PMDVoltage: NominalVoltage,
		SoCVoltage: NominalVoltage,
		TREFP:      NominalTREFP,
	}
}

// Server computes the full per-domain breakdown for a chip at an operating
// point under a core load and DRAM bandwidth.
func Server(chip *silicon.Chip, op OperatingPoint, load CoreLoad, bandwidthGBs float64) (Breakdown, error) {
	pmd, err := PMDPowerW(chip, op.PMDVoltage, load)
	if err != nil {
		return Breakdown{}, err
	}
	soc, err := SoCPowerW(op.SoCVoltage)
	if err != nil {
		return Breakdown{}, err
	}
	dram, err := DRAMPowerW(op.TREFP, bandwidthGBs)
	if err != nil {
		return Breakdown{}, err
	}
	return Breakdown{PMDW: pmd, SoCW: soc, DRAMW: dram, OtherW: otherW}, nil
}

// Savings returns (old-new)/old, guarding division by zero.
func Savings(oldW, newW float64) float64 {
	if oldW == 0 {
		return 0
	}
	return (oldW - newW) / oldW
}
