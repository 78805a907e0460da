package workload

import (
	"math"
	"testing"

	"breakband/internal/rng"
)

// refLogNormalSizes is the reference lognormal size draw: Box-Muller with
// separate Sin and Cos calls and a cached spare, and log-space parameters
// derived on every draw, then rounded and clamped as sizeGen does. It reads
// its uniforms from r, so it stays in step with an identically seeded stream
// drawn through sizeGen.
type refLogNormalSizes struct {
	r        *rng.Rand
	hasSpare bool
	spare    float64
}

func (g *refLogNormalSizes) norm() float64 {
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

func (g *refLogNormalSizes) draw(mean, cv float64) int {
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	b := int(math.Round(math.Exp(mu + math.Sqrt(sigma2)*g.norm())))
	return min(max(b, 1), MaxMsgBytes)
}

// TestLogNormalSizesMatchReference pins sizeGen's lognormal draws to the
// reference formula over a grid of means and cvs, several seeds each, and
// requires both streams to end in the same position.
func TestLogNormalSizesMatchReference(t *testing.T) {
	for _, mean := range []float64{16, 100, 1024, 4096} {
		for _, cv := range []float64{0.1, 0.5, 1, 2} {
			g := newSizeGen(&SizeSpec{Dist: SizeDistLogNormal, Mean: mean, CV: cv})
			for _, seed := range []uint64{1, 7, 42} {
				r := rng.New(seed)
				ref := refLogNormalSizes{r: rng.New(seed)}
				for i := 0; i < 100_000; i++ {
					if got, want := g.draw(r), ref.draw(mean, cv); got != want {
						t.Fatalf("mean %g cv %g seed %d draw %d: got %d B, reference %d B", mean, cv, seed, i, got, want)
					}
				}
				if r.Uint64() != ref.r.Uint64() {
					t.Fatalf("mean %g cv %g seed %d: stream position diverged from the reference", mean, cv, seed)
				}
			}
		}
	}
}
