// Package stats provides the small statistical toolkit the characterization
// harness needs: summary statistics, percentiles, Kahan summation, and
// ordinary least-squares multiple regression (used by the Vmin predictor).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the Kahan-compensated sum of xs.
func Sum(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Variance returns the population variance of xs (0 for fewer than 2 samples).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := x - m
		acc += d * d
	}
	return acc / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns ErrEmpty for empty input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MultiLinFit fits y = b0 + b1*x1 + ... + bk*xk by solving the normal
// equations with Gaussian elimination. rows holds one feature vector per
// observation. It is used by the performance-counter Vmin predictor.
func MultiLinFit(rows [][]float64, y []float64) ([]float64, error) {
	n := len(rows)
	if n == 0 || n != len(y) {
		return nil, errors.New("stats: bad observation count")
	}
	k := len(rows[0])
	for _, r := range rows {
		if len(r) != k {
			return nil, errors.New("stats: ragged feature rows")
		}
	}
	d := k + 1 // intercept + k features
	// Build X^T X and X^T y.
	xtx := make([][]float64, d)
	for i := range xtx {
		xtx[i] = make([]float64, d)
	}
	xty := make([]float64, d)
	feat := make([]float64, d)
	for i, r := range rows {
		feat[0] = 1
		copy(feat[1:], r)
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				xtx[a][b] += feat[a] * feat[b]
			}
			xty[a] += feat[a] * y[i]
		}
	}
	// Gaussian elimination with partial pivoting, with small ridge for
	// numerical robustness on nearly collinear features.
	for i := 0; i < d; i++ {
		xtx[i][i] += 1e-9
	}
	for col := 0; col < d; col++ {
		pivot := col
		for r := col + 1; r < d; r++ {
			if math.Abs(xtx[r][col]) > math.Abs(xtx[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(xtx[pivot][col]) < 1e-12 {
			return nil, errors.New("stats: singular normal matrix")
		}
		xtx[col], xtx[pivot] = xtx[pivot], xtx[col]
		xty[col], xty[pivot] = xty[pivot], xty[col]
		inv := 1 / xtx[col][col]
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := xtx[r][col] * inv
			for c := col; c < d; c++ {
				xtx[r][c] -= f * xtx[col][c]
			}
			xty[r] -= f * xty[col]
		}
	}
	coef := make([]float64, d)
	for i := 0; i < d; i++ {
		coef[i] = xty[i] / xtx[i][i]
	}
	return coef, nil
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
