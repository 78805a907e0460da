package rng_test

import (
	"math"
	"reflect"
	"testing"

	"breakband/internal/config"
	"breakband/internal/rng"
	"breakband/internal/units"
)

// refNormal is the reference noise formula: Box-Muller with separate Sin and
// Cos calls and a cached spare, and a lognormal that derives its log-space
// parameters on every draw. It reads its uniforms from r, so it stays in
// step with an identically seeded *rng.Rand that draws through the
// production path.
type refNormal struct {
	r        *rng.Rand
	hasSpare bool
	spare    float64
}

func (g *refNormal) norm() float64 {
	if g.hasSpare {
		g.hasSpare = false
		return g.spare
	}
	for {
		u := g.r.Float64()
		if u == 0 {
			continue
		}
		v := g.r.Float64()
		m := math.Sqrt(-2 * math.Log(u))
		g.spare = m * math.Sin(2*math.Pi*v)
		g.hasSpare = true
		return m * math.Cos(2*math.Pi*v)
	}
}

func (g *refNormal) logNormal(mean, cv float64) float64 {
	if cv <= 0 || mean <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*g.norm())
}

// sample is the reference LogNormalDist.Sample.
func (g *refNormal) sample(mean units.Time, cv float64) units.Time {
	if cv <= 0 {
		return mean
	}
	v := g.logNormal(float64(mean), cv)
	if v < 0 {
		v = 0
	}
	return units.Time(v)
}

// referenceDraws is how many draws each (mean, cv) pair makes per seed.
const referenceDraws = 100_000

var referenceSeeds = []uint64{1, 7, 42}

// lognormals collects every LogNormalDist reachable from the rng.Dist fields
// of v, unwrapping Spiked and Scaled decorators.
func lognormals(v reflect.Value) []rng.LogNormalDist {
	var out []rng.LogNormalDist
	var visit func(d rng.Dist)
	visit = func(d rng.Dist) {
		switch d := d.(type) {
		case rng.LogNormalDist:
			out = append(out, d)
		case rng.Spiked:
			visit(d.Base)
			visit(d.Extra)
		case rng.Scaled:
			visit(d.Base)
		}
	}
	for i := 0; i < v.NumField(); i++ {
		if d, ok := v.Field(i).Interface().(rng.Dist); ok {
			visit(d)
		}
	}
	return out
}

// TestConfigNoiseMatchesReference draws every lognormal the NoiseOn
// configuration builds, round-robin from one stream as a running system
// interleaves them, and requires every sample to equal the reference
// formula's and both streams to end in the same position.
func TestConfigNoiseMatchesReference(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOn, 1, true)
	dists := append(lognormals(reflect.ValueOf(cfg.SW)), lognormals(reflect.ValueOf(cfg.Prof))...)
	if len(dists) < 30 {
		t.Fatalf("found %d lognormal dists in the NoiseOn config, want every software and profiling cost", len(dists))
	}
	for _, seed := range referenceSeeds {
		r := rng.New(seed)
		ref := refNormal{r: rng.New(seed)}
		for i := 0; i < referenceDraws; i++ {
			for _, d := range dists {
				got, want := d.Sample(r), ref.sample(d.Mean(), d.CV())
				if got != want {
					t.Fatalf("seed %d draw %d, %v: got %d ps, reference %d ps", seed, i, d, got, want)
				}
			}
		}
		if r.Uint64() != ref.r.Uint64() {
			t.Fatalf("seed %d: stream position diverged from the reference", seed)
		}
	}
}

// TestLogNormalMatchesReference covers workload message sizes: a grid of
// byte means and cvs, each pair on its own stream.
func TestLogNormalMatchesReference(t *testing.T) {
	for _, mean := range []float64{16, 100, 1024, 4096} {
		for _, cv := range []float64{0.1, 0.5, 1, 2} {
			p := rng.NewLogNormal(mean, cv)
			for _, seed := range referenceSeeds {
				r := rng.New(seed)
				ref := refNormal{r: rng.New(seed)}
				for i := 0; i < referenceDraws; i++ {
					got, want := p.Draw(r), ref.logNormal(mean, cv)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("mean %g cv %g seed %d draw %d: got %v, reference %v", mean, cv, seed, i, got, want)
					}
				}
				if r.Uint64() != ref.r.Uint64() {
					t.Fatalf("mean %g cv %g seed %d: stream position diverged from the reference", mean, cv, seed)
				}
			}
		}
	}
}
