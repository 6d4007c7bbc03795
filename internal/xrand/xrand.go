// Package xrand provides deterministic, splittable pseudo-random number
// generation for the guardband simulators.
//
// Every stochastic subsystem (chip fabrication, DRAM cell fabrication,
// genetic-algorithm search, thermal sensor noise, workload phase behaviour)
// draws from its own stream split off a single experiment seed, so whole
// campaigns are reproducible bit-for-bit while remaining statistically
// independent of each other.
//
// The generator is xoshiro256** seeded through SplitMix64, the construction
// recommended by the xoshiro authors. No package-level mutable state exists;
// callers own their streams.
package xrand

import "math"

// Stream is a deterministic PRNG stream. The zero value is not usable;
// construct streams with New or by splitting an existing stream.
type Stream struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for stream splitting.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed. Distinct seeds yield streams that
// are statistically independent for simulation purposes.
func New(seed uint64) *Stream {
	st := seed
	var r Stream
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro256** must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split derives an independent child stream identified by label. Splitting
// does not perturb the parent, so the set of children obtained from a parent
// is a pure function of (parent seed, label).
func (r *Stream) Split(label string) *Stream {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	// Mix the parent identity in without advancing the parent.
	st := h ^ r.s[0] ^ rotl(r.s[2], 17)
	var c Stream
	for i := range c.s {
		c.s[i] = splitmix64(&st)
	}
	if c.s[0]|c.s[1]|c.s[2]|c.s[3] == 0 {
		c.s[0] = 0x9e3779b97f4a7c15
	}
	return &c
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Advance discards the next n draws, leaving the stream where n Uint64
// calls would. It runs only the state update, on locals, and skips the
// scrambled output, so a consumer that owns draws by position can jump
// over the ones it does not need at register speed.
func (r *Stream) Advance(n int) {
	if n <= 0 {
		return
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; n > 0; n-- {
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Float64 returns a uniform value in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a uniform non-negative int64.
func (r *Stream) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Bool returns a fair coin flip.
func (r *Stream) Bool() bool { return r.Uint64()&1 == 1 }

// Norm returns a standard normal variate (polar Marsaglia method).
func (r *Stream) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// NormMS returns a normal variate with the given mean and standard deviation.
func (r *Stream) NormMS(mean, sigma float64) float64 {
	return mean + sigma*r.Norm()
}

// Poisson returns a Poisson variate with the given mean. Small means use
// Knuth's product method; large means use a clamped normal approximation,
// which is accurate to well under the sampling noise for lambda >= 30.
func (r *Stream) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k, p := 0, 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := r.NormMS(lambda, math.Sqrt(lambda))
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
