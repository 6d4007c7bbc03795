package isa

import (
	"math"
	"strings"
	"testing"

	"repro/internal/pdn"
)

func TestClassStringAndValid(t *testing.T) {
	for _, c := range Classes() {
		if !c.Valid() {
			t.Errorf("class %v reported invalid", c)
		}
		if s := c.String(); s == "" || strings.HasPrefix(s, "class(") {
			t.Errorf("class %d has placeholder name %q", int(c), s)
		}
	}
	if Class(0).Valid() || Class(99).Valid() {
		t.Error("out-of-range classes reported valid")
	}
	if !strings.HasPrefix(Class(99).String(), "class(") {
		t.Error("unknown class String() should use placeholder")
	}
}

func TestTraitsCoverAllClasses(t *testing.T) {
	for _, c := range Classes() {
		if c.CurrentA() <= 0 {
			t.Errorf("%v has non-positive current", c)
		}
		if c.Cycles() <= 0 {
			t.Errorf("%v has non-positive cycles", c)
		}
	}
}

func TestPowerOrdering(t *testing.T) {
	// The virus search landscape depends on these orderings.
	if !(FPSIMD.CurrentA() > FPALU.CurrentA()) {
		t.Error("FPSIMD must out-draw FPALU")
	}
	if !(FPALU.CurrentA() > IntALU.CurrentA()) {
		t.Error("FPALU must out-draw IntALU")
	}
	if !(NOP.CurrentA() < IntALU.CurrentA()) {
		t.Error("NOP must draw less than IntALU")
	}
	if !(LoadDRAM.CurrentA() < LoadL1.CurrentA()) {
		t.Error("DRAM-stalled load must draw less than an L1 hit")
	}
	if MaxCurrentA() != FPSIMD.CurrentA() || MinCurrentA() != NOP.CurrentA() {
		t.Error("Max/MinCurrentA do not match FPSIMD/NOP")
	}
}

func TestNewLoopValidation(t *testing.T) {
	if _, err := NewLoop(); err == nil {
		t.Error("empty loop accepted")
	}
	if _, err := NewLoop(Class(42)); err == nil {
		t.Error("invalid class accepted")
	}
	l, err := NewLoop(FPSIMD, NOP)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
}

func TestLoopCloneIsDeep(t *testing.T) {
	l, _ := NewLoop(FPSIMD, NOP, IntALU)
	c := l.Clone()
	c.Body[0] = NOP
	if l.Body[0] != FPSIMD {
		t.Error("Clone shares backing storage")
	}
}

func TestExecuteWaveformShape(t *testing.T) {
	l, _ := NewLoop(FPSIMD, NOP, LoadL2)
	r, err := l.Execute()
	if err != nil {
		t.Fatal(err)
	}
	wantCycles := 1 + 1 + 4
	if r.Cycles != wantCycles || len(r.Waveform) != wantCycles {
		t.Fatalf("cycles = %d (waveform %d), want %d", r.Cycles, len(r.Waveform), wantCycles)
	}
	if r.Waveform[0] != FPSIMD.CurrentA() || r.Waveform[1] != NOP.CurrentA() {
		t.Error("waveform does not follow instruction order")
	}
	for i := 2; i < 6; i++ {
		if r.Waveform[i] != LoadL2.CurrentA() {
			t.Errorf("stall cycle %d current = %v, want %v", i, r.Waveform[i], LoadL2.CurrentA())
		}
	}
	if math.Abs(r.IPC-3.0/6.0) > 1e-12 {
		t.Errorf("IPC = %v, want 0.5", r.IPC)
	}
}

func TestExecuteEmptyLoopFails(t *testing.T) {
	var l Loop
	if _, err := l.Execute(); err == nil {
		t.Error("Execute on empty loop should fail")
	}
}

func TestResonantLoopBeatsUniformLoop(t *testing.T) {
	// A loop alternating 10 FPSIMD and 10 NOPs switches at exactly the PDN
	// resonant frequency at 2.4 GHz and must produce far more resonant
	// current than a uniform full-power loop.
	net := pdn.Default()
	body := make([]Class, 0, 20)
	for i := 0; i < 10; i++ {
		body = append(body, FPSIMD)
	}
	for i := 0; i < 10; i++ {
		body = append(body, NOP)
	}
	res, _ := NewLoop(body...)
	uni, _ := NewLoop(body[:10]...) // all FPSIMD

	rr, err := res.Execute()
	if err != nil {
		t.Fatal(err)
	}
	ru, err := uni.Execute()
	if err != nil {
		t.Fatal(err)
	}
	fr, _ := net.Analyze(rr.Waveform, 2.4e9)
	fu, _ := net.Analyze(ru.Waveform, 2.4e9)
	if fr.ResonantCurrentA < 10*fu.ResonantCurrentA {
		t.Errorf("resonant loop %v not decisively above uniform loop %v",
			fr.ResonantCurrentA, fu.ResonantCurrentA)
	}
	if net.DroopMV(fr) <= net.DroopMV(fu) {
		t.Error("resonant loop should droop more than uniform max-power loop")
	}
}

func TestMixValidate(t *testing.T) {
	good := Mix{IntALU: 0.5, LoadL1: 0.3, Branch: 0.2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid mix rejected: %v", err)
	}
	bad := []Mix{
		{IntALU: 0.5},               // sums to 0.5
		{Class(77): 1.0},            // invalid class
		{IntALU: -0.2, LoadL1: 1.2}, // negative fraction
		{IntALU: 0.8, LoadL1: 0.8},  // sums to 1.6
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad mix %d accepted", i)
		}
	}
}

func TestMixAvgCurrentWeightsByOccupancy(t *testing.T) {
	// A mix of half FPSIMD, half LoadDRAM spends 40/41 of its cycles in the
	// low-current stall, so the average must sit near the stall current.
	m := Mix{FPSIMD: 0.5, LoadDRAM: 0.5}
	avg := m.AvgCurrentA()
	if avg > 2.0 {
		t.Errorf("stall-dominated mix average current = %v, want < 2A", avg)
	}
	pure := Mix{FPSIMD: 1.0}
	if math.Abs(pure.AvgCurrentA()-FPSIMD.CurrentA()) > 1e-12 {
		t.Errorf("pure mix avg = %v, want %v", pure.AvgCurrentA(), FPSIMD.CurrentA())
	}
}

func TestMixIPC(t *testing.T) {
	pure := Mix{IntALU: 1.0}
	if math.Abs(pure.IPC()-1) > 1e-12 {
		t.Errorf("IntALU IPC = %v, want 1", pure.IPC())
	}
	memBound := Mix{LoadDRAM: 1.0}
	if math.Abs(memBound.IPC()-1.0/40) > 1e-12 {
		t.Errorf("LoadDRAM IPC = %v, want 0.025", memBound.IPC())
	}
	if (Mix{}).IPC() != 0 {
		t.Error("empty mix IPC should be 0")
	}
}

func TestLoopString(t *testing.T) {
	l, _ := NewLoop(FPSIMD, NOP)
	if got := l.String(); got != "fmla.v; nop" {
		t.Errorf("String = %q", got)
	}
}

func BenchmarkExecute(b *testing.B) {
	body := make([]Class, 0, 40)
	for i := 0; i < 20; i++ {
		body = append(body, FPSIMD, NOP)
	}
	l, _ := NewLoop(body...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = l.Execute()
	}
}
