package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanAndSum(t *testing.T) {
	cases := []struct {
		xs   []float64
		mean float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEq(got, c.mean, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.mean)
		}
	}
}

func TestKahanSumPrecision(t *testing.T) {
	// 1 + 1e-16 * 1e6 accumulated naively loses the small terms.
	xs := make([]float64, 1000001)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e-10
	if !almostEq(got, want, 1e-13) {
		t.Errorf("Kahan sum = %.17g, want %.17g", got, want)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance singleton = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile empty err = %v, want ErrEmpty", err)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	_, _ = Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMultiLinFitExact(t *testing.T) {
	// y = 2 + 3*x1 - x2
	rows := [][]float64{{1, 0}, {0, 1}, {2, 1}, {3, 3}, {1, 5}}
	y := make([]float64, len(rows))
	for i, r := range rows {
		y[i] = 2 + 3*r[0] - r[1]
	}
	coef, err := MultiLinFit(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(coef[i], want[i], 1e-6) {
			t.Errorf("coef[%d] = %v, want %v", i, coef[i], want[i])
		}
	}
}

func TestMultiLinFitErrors(t *testing.T) {
	if _, err := MultiLinFit(nil, nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := MultiLinFit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("expected error for ragged rows")
	}
}

func TestClamp(t *testing.T) {
	if err := quick.Check(func(x float64) bool {
		v := Clamp(x, -1, 1)
		return v >= -1 && v <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
	if Clamp(0.5, -1, 1) != 0.5 {
		t.Error("Clamp altered in-range value")
	}
}

func TestPercentileSortedProperty(t *testing.T) {
	// Percentile must be monotone in p.
	if err := quick.Check(func(raw []float64, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := float64(pa%101), float64(pb%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, _ := Percentile(xs, lo)
		b, _ := Percentile(xs, hi)
		return a <= b
	}, nil); err != nil {
		t.Fatal(err)
	}
}
