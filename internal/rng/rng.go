// Package rng provides a small, fast, deterministic pseudo-random number
// generator for the search algorithms in this repository.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded through splitmix64,
// which gives high-quality 64-bit streams from any seed, including zero.
// Each search process owns exactly one *Rand; none of the methods are safe
// for concurrent use. Parallel algorithms derive one independent stream per
// process with Split, so runs are reproducible regardless of interleaving.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator.
// The zero value is not usable; construct with New.
type Rand struct {
	s [4]uint64
	// cached second normal deviate from the polar method
	hasGauss bool
	gauss    float64
}

// splitmix64 advances *x and returns the next splitmix64 output.
// It is used only to expand seeds into full xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if it had been created by New(seed).
func (r *Rand) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	r.hasGauss = false
	r.gauss = 0
}

// State is the full serializable generator state: the xoshiro256** words
// plus the polar-method gauss cache. Exporting and re-importing a State
// reproduces the stream exactly — including the next NormFloat64, which
// may come from the cache rather than the uniform stream. The uint64
// words survive JSON round-trips exactly: encoding/json prints them as
// full-precision decimal integers and parses them back with ParseUint.
type State struct {
	S        [4]uint64 `json:"s"`
	HasGauss bool      `json:"has_gauss,omitempty"`
	Gauss    float64   `json:"gauss,omitempty"`
}

// State exports the generator's complete state for checkpointing.
func (r *Rand) State() State {
	return State{S: r.s, HasGauss: r.hasGauss, Gauss: r.gauss}
}

// SetState restores a state captured by State. The restored generator
// produces exactly the stream the captured one would have produced.
func (r *Rand) SetState(st State) {
	r.s = st.S
	r.hasGauss = st.HasGauss
	r.gauss = st.Gauss
}

// Split returns a new generator whose stream is independent of r's.
// It is the supported way to derive per-worker generators from a run seed.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x6a09e667f3bcc909)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard-normally distributed float64 using the
// Marsaglia polar method.
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Perm returns a pseudo-random permutation of the integers [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
// It panics if n < 0.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
