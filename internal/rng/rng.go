package rng

import (
	"math"
)

// Rand is a deterministic pseudo-random generator. The zero value is not
// usable; construct with New or Stream.
type Rand struct {
	s [4]uint64
	// cached spare normal variate for Box-Muller
	hasSpare bool
	spare    float64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output. It is
// used for seeding, following the xoshiro authors' recommendation.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	s := seed
	for i := range r.s {
		r.s[i] = splitmix64(&s)
	}
	// xoshiro requires a non-zero state; splitmix64 of anything gives that
	// with overwhelming probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// DeriveSeed deterministically mixes a label into a root seed (FNV-1a),
// yielding the seed of an independent sub-experiment. The measurement
// campaign uses it to give every task its own noise seed derived from the
// campaign seed, so results are independent of task execution order.
func DeriveSeed(seed uint64, name string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}

// Stream derives an independent generator from seed and a stream name. Two
// streams with different names are statistically independent; the same
// (seed, name) pair always yields the same stream.
func Stream(seed uint64, name string) *Rand {
	return New(DeriveSeed(seed, name))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate (Box-Muller with caching).
func (r *Rand) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		m := math.Sqrt(-2 * math.Log(u))
		// Sincos shares Sin's and Cos's argument reduction and
		// polynomials, so the pair is bit-identical to two separate calls.
		sin, cos := math.Sincos(2 * math.Pi * v)
		r.spare = m * sin
		r.hasSpare = true
		return m * cos
	}
}

// LogNormal is a lognormal distribution with a given mean and coefficient of
// variation (stddev/mean) of the *resulting* distribution. NewLogNormal
// derives its log-space parameters once, so a draw costs one normal variate
// and one Exp. The zero value is degenerate: it returns 0 and consumes
// nothing.
type LogNormal struct {
	mean, cv  float64
	mu, sigma float64
}

// NewLogNormal fixes the parameters of a lognormal with the given mean and
// cv. A cv or mean of zero or below is degenerate: every draw returns mean
// exactly.
func NewLogNormal(mean, cv float64) LogNormal {
	p := LogNormal{mean: mean, cv: cv}
	if !p.degenerate() {
		sigma2 := math.Log(1 + cv*cv)
		p.mu = math.Log(mean) - sigma2/2
		p.sigma = math.Sqrt(sigma2)
	}
	return p
}

func (p LogNormal) degenerate() bool { return p.cv <= 0 || p.mean <= 0 }

// Draw returns one variate from r. Degenerate parameters and a nil r (the
// NoiseOff convention) return the mean and leave every stream untouched.
func (p LogNormal) Draw(r *Rand) float64 {
	if r == nil || p.degenerate() {
		return p.mean
	}
	return math.Exp(p.mu + p.sigma*r.Norm())
}
