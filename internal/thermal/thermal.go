// Package thermal models the paper's first-of-its-kind temperature-
// controlled DRAM testbed: resistive heating elements taped to each DIMM,
// a thermocouple for measurement (the paper cross-checks it against the
// on-DIMM SPD sensor, which this model leaves out), and a controller board
// (a Raspberry Pi with four closed-loop PID controllers and eight
// solid-state relays, one per DIMM rank) that regulates each heating
// element so the measured DIMM temperature tracks the setpoint within
// 1 degC.
//
// The plant is a lumped thermal RC model per channel; the control loop is
// a discrete PID with anti-windup driving a duty-cycled relay. Both the
// regulation quality the paper reports and realistic settle transients
// emerge from the loop rather than being scripted.
package thermal

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/xrand"
)

// PID is a discrete PID controller with output clamping and integrator
// anti-windup. The zero value is unusable; use NewPID.
type PID struct {
	Kp, Ki, Kd     float64
	OutMin, OutMax float64

	integ   float64
	prevErr float64
	primed  bool
}

// NewPID returns a controller with the given gains and output range.
func NewPID(kp, ki, kd, outMin, outMax float64) (*PID, error) {
	if outMax <= outMin {
		return nil, errors.New("thermal: PID output range inverted")
	}
	if kp < 0 || ki < 0 || kd < 0 {
		return nil, errors.New("thermal: negative PID gains")
	}
	return &PID{Kp: kp, Ki: ki, Kd: kd, OutMin: outMin, OutMax: outMax}, nil
}

// Step advances the controller by dt seconds and returns the new output.
func (p *PID) Step(setpoint, measured, dt float64) float64 {
	if dt <= 0 {
		return clampF(p.OutMin, p.OutMin, p.OutMax)
	}
	e := setpoint - measured
	var deriv float64
	if p.primed {
		deriv = (e - p.prevErr) / dt
	}
	p.prevErr = e
	p.primed = true

	p.integ += e * dt
	out := p.Kp*e + p.Ki*p.integ + p.Kd*deriv
	// Anti-windup by conditional integration: when the output saturates
	// and the error would push it further into saturation, undo this
	// step's integration. (Back-calculation to the clamp value would
	// rectify sensor noise into a systematic drift.)
	if out > p.OutMax {
		if e > 0 {
			p.integ -= e * dt
		}
		out = p.OutMax
	} else if out < p.OutMin {
		if e < 0 {
			p.integ -= e * dt
		}
		out = p.OutMin
	}
	return out
}

// Reset clears controller state (integrator, derivative history).
func (p *PID) Reset() {
	p.integ = 0
	p.prevErr = 0
	p.primed = false
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Plant is the lumped thermal model of one DIMM with its heating adapter:
// heat capacity Cth, thermal resistance to ambient Rth, and a heater of
// HeaterMaxW driven by a relay duty fraction.
type Plant struct {
	TempC      float64 // current DIMM temperature
	AmbientC   float64
	HeaterMaxW float64
	RthKPerW   float64 // thermal resistance to ambient
	CthJPerK   float64 // heat capacity
	// SelfHeatW is additional dissipation from the DRAM devices themselves
	// (workload dependent; small next to the heater).
	SelfHeatW float64
}

// DefaultPlant returns the calibrated DIMM+adapter thermal model: a 30 W
// element can hold the DIMM 60 K above ambient with a ~100 s time constant.
func DefaultPlant(ambientC float64) Plant {
	return Plant{
		TempC:      ambientC,
		AmbientC:   ambientC,
		HeaterMaxW: 30,
		RthKPerW:   2.0,
		CthJPerK:   50,
	}
}

// Step advances the plant by dt seconds with the heater at the given duty
// fraction in [0, 1].
func (pl *Plant) Step(duty, dt float64) {
	duty = clampF(duty, 0, 1)
	if dt <= 0 {
		return
	}
	pIn := duty*pl.HeaterMaxW + pl.SelfHeatW
	pOut := (pl.TempC - pl.AmbientC) / pl.RthKPerW
	pl.TempC += (pIn - pOut) / pl.CthJPerK * dt
}

// Channel is one regulated DIMM: plant + sensors + PID + relay.
type Channel struct {
	Plant    Plant
	PID      *PID
	Setpoint float64

	// thermocouple noise (fast sensor used by the control loop).
	tcNoiseC float64

	rng *xrand.Stream
}

// Thermocouple returns a noisy instantaneous temperature reading.
func (ch *Channel) Thermocouple() float64 {
	return ch.Plant.TempC + ch.rng.NormMS(0, ch.tcNoiseC)
}

// Testbed is the full controller board: one channel per DIMM rank pair.
// The paper's board regulates 4 DIMMs x 2 ranks via 8 relays; we expose
// one channel per DIMM (both rank elements driven together), which is how
// the DRAM experiments used it, plus independent per-channel setpoints.
type Testbed struct {
	Channels []*Channel
	// ControlDt is the PID loop period in seconds.
	ControlDt float64

	elapsed time.Duration
}

// NewTestbed builds a testbed with n channels at the given ambient.
func NewTestbed(n int, ambientC float64, seed uint64) (*Testbed, error) {
	if n <= 0 {
		return nil, errors.New("thermal: need at least one channel")
	}
	root := xrand.New(seed).Split("thermal")
	tb := &Testbed{Channels: make([]*Channel, n), ControlDt: 0.5}
	for i := range tb.Channels {
		// Gains tuned for the default plant: aggressive proportional
		// control with a slow integrator, matching the paper's "controllers
		// can aggressively control the heating elements".
		pid, err := NewPID(0.8, 0.01, 0.2, 0, 1)
		if err != nil {
			return nil, err
		}
		tb.Channels[i] = &Channel{
			Plant:    DefaultPlant(ambientC),
			PID:      pid,
			Setpoint: ambientC,
			tcNoiseC: 0.05,
			rng:      root.Split(fmt.Sprintf("ch/%d", i)),
		}
	}
	return tb, nil
}

// SetTarget sets the setpoint of one channel.
func (tb *Testbed) SetTarget(ch int, tempC float64) error {
	if ch < 0 || ch >= len(tb.Channels) {
		return fmt.Errorf("thermal: channel %d out of range", ch)
	}
	if tempC < 0 || tempC > 110 {
		return fmt.Errorf("thermal: setpoint %v degC outside supported range", tempC)
	}
	tb.Channels[ch].Setpoint = tempC
	return nil
}

// SetAllTargets sets every channel to the same setpoint.
func (tb *Testbed) SetAllTargets(tempC float64) error {
	for i := range tb.Channels {
		if err := tb.SetTarget(i, tempC); err != nil {
			return err
		}
	}
	return nil
}

// Run advances the whole testbed by d of simulated time, executing the
// PID loop every ControlDt seconds, and returns the per-channel maximum
// absolute deviation from setpoint observed during the window.
func (tb *Testbed) Run(d time.Duration) []float64 {
	steps := int(d.Seconds()/tb.ControlDt + 0.5)
	maxDev := make([]float64, len(tb.Channels))
	for s := 0; s < steps; s++ {
		for i, ch := range tb.Channels {
			duty := ch.PID.Step(ch.Setpoint, ch.Thermocouple(), tb.ControlDt)
			ch.Plant.Step(duty, tb.ControlDt)
			if dev := math.Abs(ch.Plant.TempC - ch.Setpoint); dev > maxDev[i] {
				maxDev[i] = dev
			}
		}
	}
	tb.elapsed += d
	return maxDev
}

// Settle drives the testbed until every channel is within tol of its
// setpoint (or the timeout expires) and then returns the maximum deviation
// observed over a subsequent hold window — the paper's "<1 degC during
// experiments" figure of merit. It reports an error on timeout.
func (tb *Testbed) Settle(tol float64, timeout, hold time.Duration) (float64, error) {
	if tol <= 0 {
		return 0, errors.New("thermal: tolerance must be positive")
	}
	deadline := tb.elapsed + timeout
	for tb.elapsed < deadline {
		tb.Run(10 * time.Second)
		ok := true
		for _, ch := range tb.Channels {
			if math.Abs(ch.Plant.TempC-ch.Setpoint) > tol {
				ok = false
				break
			}
		}
		if ok {
			devs := tb.Run(hold)
			worst := 0.0
			for _, d := range devs {
				if d > worst {
					worst = d
				}
			}
			return worst, nil
		}
	}
	return 0, fmt.Errorf("thermal: channels did not settle within %v", timeout)
}

// Elapsed returns total simulated time the testbed has run.
func (tb *Testbed) Elapsed() time.Duration { return tb.elapsed }

// Temp returns the true plant temperature of a channel.
func (tb *Testbed) Temp(ch int) (float64, error) {
	if ch < 0 || ch >= len(tb.Channels) {
		return 0, fmt.Errorf("thermal: channel %d out of range", ch)
	}
	return tb.Channels[ch].Plant.TempC, nil
}
