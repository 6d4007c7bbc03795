package thermal

import (
	"math"
	"testing"
	"time"
)

func TestPIDValidation(t *testing.T) {
	if _, err := NewPID(1, 0, 0, 1, 0); err == nil {
		t.Error("inverted output range accepted")
	}
	if _, err := NewPID(-1, 0, 0, 0, 1); err == nil {
		t.Error("negative gain accepted")
	}
	if _, err := NewPID(1, 0.1, 0.5, 0, 1); err != nil {
		t.Errorf("valid PID rejected: %v", err)
	}
}

func TestPIDOutputClamped(t *testing.T) {
	p, _ := NewPID(10, 1, 0, 0, 1)
	if out := p.Step(100, 0, 1); out != 1 {
		t.Errorf("huge positive error output = %v, want clamped 1", out)
	}
	p.Reset()
	if out := p.Step(0, 100, 1); out != 0 {
		t.Errorf("huge negative error output = %v, want clamped 0", out)
	}
}

func TestPIDAntiWindup(t *testing.T) {
	// Saturate hard for a long time, then remove the error: output must
	// recover quickly instead of staying pinned by a wound-up integrator.
	p, _ := NewPID(1, 0.5, 0, 0, 1)
	for i := 0; i < 1000; i++ {
		p.Step(50, 0, 1)
	}
	out := p.Step(0, 0, 1)
	if out > 0.99 {
		t.Errorf("integrator wound up: output %v after error removed", out)
	}
}

func TestPIDZeroDt(t *testing.T) {
	p, _ := NewPID(1, 0.1, 0.1, 0, 1)
	if out := p.Step(10, 0, 0); out != 0 {
		t.Errorf("zero-dt step output = %v, want OutMin", out)
	}
}

func TestPlantPhysics(t *testing.T) {
	pl := DefaultPlant(30)
	// No heat: stays at ambient.
	pl.Step(0, 10)
	if pl.TempC != 30 {
		t.Errorf("unheated plant moved to %v", pl.TempC)
	}
	// Full heat: approaches steady state monotonically from below.
	want := steadyStateTemp(pl, 1)
	if want <= 30 {
		t.Fatalf("steady state %v not above ambient", want)
	}
	prev := pl.TempC
	for i := 0; i < 10000; i++ {
		pl.Step(1, 0.5)
		if pl.TempC < prev-1e-9 {
			t.Fatal("heated plant cooled down")
		}
		prev = pl.TempC
	}
	if math.Abs(pl.TempC-want) > 0.5 {
		t.Errorf("plant settled at %v, steady-state prediction %v", pl.TempC, want)
	}
	// Duty is clamped.
	pl2 := DefaultPlant(30)
	pl2.Step(5, 1)
	pl3 := DefaultPlant(30)
	pl3.Step(1, 1)
	if pl2.TempC != pl3.TempC {
		t.Error("duty not clamped to 1")
	}
}

func TestTestbedRegulatesWithinOneDegree(t *testing.T) {
	// The paper's headline: max deviation from setpoint below 1 degC.
	tb, err := NewTestbed(4, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetAllTargets(50); err != nil {
		t.Fatal(err)
	}
	dev, err := tb.Settle(0.5, 30*time.Minute, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dev >= 1.0 {
		t.Errorf("hold deviation %v degC, want < 1 (paper's testbed)", dev)
	}
}

func TestTestbedIndependentChannels(t *testing.T) {
	tb, err := NewTestbed(4, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetTarget(0, 50); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetTarget(1, 60); err != nil {
		t.Fatal(err)
	}
	// Channels 2 and 3 stay at ambient setpoint.
	tb.Run(20 * time.Minute)
	t0, _ := tb.Temp(0)
	t1, _ := tb.Temp(1)
	t2, _ := tb.Temp(2)
	if math.Abs(t0-50) > 1 || math.Abs(t1-60) > 1 {
		t.Errorf("channels off target: %v, %v", t0, t1)
	}
	if math.Abs(t2-30) > 1 {
		t.Errorf("idle channel drifted to %v", t2)
	}
}

func TestTestbedStepChange(t *testing.T) {
	// 50 -> 60 degC step (the Table I protocol) must re-settle.
	tb, err := NewTestbed(1, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = tb.SetAllTargets(50)
	if _, err := tb.Settle(0.5, 30*time.Minute, time.Minute); err != nil {
		t.Fatal(err)
	}
	_ = tb.SetAllTargets(60)
	dev, err := tb.Settle(0.5, 30*time.Minute, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dev >= 1.0 {
		t.Errorf("post-step hold deviation %v degC", dev)
	}
}

func TestSettleTimeout(t *testing.T) {
	tb, err := NewTestbed(1, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 110 degC is beyond the heater's steady-state reach (30 + 30W*2K/W = 90).
	_ = tb.SetAllTargets(110)
	if _, err := tb.Settle(0.5, 5*time.Minute, time.Minute); err == nil {
		t.Error("unreachable setpoint settled")
	}
}

func TestSensors(t *testing.T) {
	tb, err := NewTestbed(1, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	ch := tb.Channels[0]
	ch.Plant.TempC = 50.13
	// Thermocouple is noisy but unbiased.
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += ch.Thermocouple()
	}
	if mean := sum / n; math.Abs(mean-50.13) > 0.02 {
		t.Errorf("thermocouple mean %v, want ~50.13", mean)
	}
}

func TestTestbedErrors(t *testing.T) {
	if _, err := NewTestbed(0, 30, 1); err == nil {
		t.Error("zero channels accepted")
	}
	tb, _ := NewTestbed(2, 30, 1)
	if err := tb.SetTarget(5, 50); err == nil {
		t.Error("out-of-range channel accepted")
	}
	if err := tb.SetTarget(0, 200); err == nil {
		t.Error("absurd setpoint accepted")
	}
	if _, err := tb.Temp(9); err == nil {
		t.Error("out-of-range Temp accepted")
	}
	if _, err := tb.Settle(0, time.Minute, time.Minute); err == nil {
		t.Error("zero tolerance accepted")
	}
}

func TestElapsedAccumulates(t *testing.T) {
	tb, _ := NewTestbed(1, 30, 6)
	tb.Run(time.Minute)
	tb.Run(time.Minute)
	if tb.Elapsed() != 2*time.Minute {
		t.Errorf("Elapsed = %v, want 2m", tb.Elapsed())
	}
}

// steadyStateTemp returns the plant's equilibrium temperature for a
// constant duty.
func steadyStateTemp(pl Plant, duty float64) float64 {
	duty = clampF(duty, 0, 1)
	return pl.AmbientC + (duty*pl.HeaterMaxW+pl.SelfHeatW)*pl.RthKPerW
}
