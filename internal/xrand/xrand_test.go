package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams with same seed diverged at draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with distinct seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("dram")
	c2 := parent.Split("chip")
	c1b := New(7).Split("dram")

	// Same (seed, label) must reproduce the same child stream.
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c1b.Uint64() {
			t.Fatalf("split stream not reproducible at draw %d", i)
		}
	}
	// Different labels must diverge.
	c1 = New(7).Split("dram")
	diff := false
	for i := 0; i < 20; i++ {
		if c1.Uint64() != c2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split streams with different labels are identical")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split("x")
	_ = a.Split("y")
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split perturbed the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(13)
	for _, lambda := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := New(14)
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Error("non-positive lambda should yield 0")
	}
	for i := 0; i < 1000; i++ {
		if r.Poisson(100) < 0 {
			t.Fatal("negative Poisson draw")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBoolRoughlyFair(t *testing.T) {
	r := New(12)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	frac := float64(trues) / n
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("Bool true fraction = %v, want ~0.5", frac)
	}
}

// TestAdvanceMatchesUint64 pins Advance to the draws it discards: after
// Advance(n) the next Uint64 is the one n+1 Uint64 calls would return,
// on root and split streams alike.
func TestAdvanceMatchesUint64(t *testing.T) {
	streams := map[string]func() *Stream{
		"New":   func() *Stream { return New(0x5EED_D4A3) },
		"Split": func() *Stream { return New(1).Split("dram/vrt") },
	}
	for name, mk := range streams {
		for _, n := range []int{0, 1, 2, 17, 3344, 100003} {
			skip, step := mk(), mk()
			skip.Advance(n)
			for i := 0; i < n; i++ {
				step.Uint64()
			}
			if g, w := skip.Uint64(), step.Uint64(); g != w {
				t.Errorf("%s: Advance(%d) then Uint64 = %x, want %x", name, n, g, w)
			}
			if *skip != *step {
				t.Errorf("%s: Advance(%d) left a different state than %d Uint64 calls", name, n, n)
			}
		}
	}
}
