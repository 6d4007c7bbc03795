package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestEncodeDecodeClean(t *testing.T) {
	for _, d := range []uint64{0, 1, 0xffffffffffffffff, 0xdeadbeefcafebabe, 1 << 63} {
		cw := Encode(d)
		got, outcome := Decode(cw)
		if outcome != OK {
			t.Errorf("Decode(Encode(%#x)) outcome = %v, want OK", d, outcome)
		}
		if got != d {
			t.Errorf("Decode(Encode(%#x)) = %#x", d, got)
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(d uint64) bool {
		got, outcome := Decode(Encode(d))
		return got == d && outcome == OK
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBitErrorsAllCorrected(t *testing.T) {
	data := uint64(0x0123456789abcdef)
	cw := Encode(data)
	for pos := 1; pos <= 72; pos++ {
		got, outcome := Decode(cw.FlipBit(pos))
		if outcome != Corrected {
			t.Errorf("flip pos %d: outcome = %v, want Corrected", pos, outcome)
		}
		if got != data {
			t.Errorf("flip pos %d: data = %#x, want %#x", pos, got, data)
		}
	}
}

func TestDoubleBitErrorsAllDetected(t *testing.T) {
	data := uint64(0xfeedfacefeedface)
	cw := Encode(data)
	for a := 1; a <= 72; a++ {
		for b := a + 1; b <= 72; b++ {
			_, outcome := Decode(cw.FlipBit(a).FlipBit(b))
			if outcome != Detected {
				t.Fatalf("flips at %d,%d: outcome = %v, want Detected", a, b, outcome)
			}
		}
	}
}

func TestSingleErrorPropertyRandomData(t *testing.T) {
	rng := xrand.New(99)
	if err := quick.Check(func(d uint64) bool {
		pos := rng.Intn(72) + 1
		got, outcome := Decode(Encode(d).FlipBit(pos))
		return outcome == Corrected && got == d
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTripleErrorsNeverSilentlyOK(t *testing.T) {
	// Triple errors must either be Detected or decode to wrong data
	// (Miscorrected when verified); they must never verify as clean.
	data := uint64(0xa5a5a5a5a5a5a5a5)
	cw := Encode(data)
	rng := xrand.New(7)
	miscorrected, detected := 0, 0
	for trial := 0; trial < 2000; trial++ {
		p := rng.Perm(72)
		bad := cw.FlipBit(p[0] + 1).FlipBit(p[1] + 1).FlipBit(p[2] + 1)
		got, outcome := Verify(bad, data)
		switch outcome {
		case Detected:
			detected++
		case Miscorrected:
			miscorrected++
			if got == data {
				t.Fatal("Miscorrected outcome but data matches golden")
			}
		case OK, Corrected:
			t.Fatalf("triple error verified clean: outcome=%v data=%#x", outcome, got)
		}
	}
	// Both behaviours should occur for a SECDED code under triple errors.
	if miscorrected == 0 {
		t.Error("no triple error aliased to a miscorrection; SDC path untested")
	}
	if detected == 0 {
		t.Error("no triple error detected")
	}
}

func TestVerifyCleanAndCorrected(t *testing.T) {
	data := uint64(42)
	cw := Encode(data)
	if _, outcome := Verify(cw, data); outcome != OK {
		t.Errorf("clean verify outcome = %v, want OK", outcome)
	}
	if _, outcome := Verify(cw.FlipBit(3), data); outcome != Corrected {
		t.Errorf("single-flip verify outcome = %v, want Corrected", outcome)
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		OK:           "OK",
		Corrected:    "CE",
		Detected:     "UE",
		Miscorrected: "SDC",
		Outcome(0):   "unknown",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}

func TestDataPositionsDisjointFromCheckBits(t *testing.T) {
	seen := map[int]bool{}
	for _, p := range dataPositions {
		if p < 1 || p > 71 {
			t.Fatalf("data position %d out of range", p)
		}
		if p&(p-1) == 0 {
			t.Fatalf("data position %d collides with a check bit", p)
		}
		if seen[p] {
			t.Fatalf("duplicate data position %d", p)
		}
		seen[p] = true
	}
	if len(seen) != 64 {
		t.Fatalf("expected 64 distinct data positions, got %d", len(seen))
	}
}

func TestFlipBitOutOfRangeIgnored(t *testing.T) {
	cw := Encode(123)
	if cw.FlipBit(0) != cw || cw.FlipBit(73) != cw || cw.FlipBit(-5) != cw {
		t.Error("out-of-range FlipBit modified the codeword")
	}
}

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkDecodeClean(b *testing.B) {
	cw := Encode(0x0123456789abcdef)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Decode(cw)
	}
}

func BenchmarkDecodeSingleError(b *testing.B) {
	cw := Encode(0x0123456789abcdef).FlipBit(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Decode(cw)
	}
}
