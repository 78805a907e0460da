package rng

import (
	"math"
	"testing"
	"testing/quick"

	"breakband/internal/units"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestStreamIndependence(t *testing.T) {
	a := Stream(7, "node0")
	b := Stream(7, "node1")
	c := Stream(7, "node0")
	if a.Uint64() != c.Uint64() {
		t.Error("same (seed, name) produced different streams")
	}
	if a.Uint64() == b.Uint64() {
		t.Error("different names produced identical streams (suspicious)")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestQuickFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			if v := r.Float64(); v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntn(t *testing.T) {
	r := New(9)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Errorf("value %d never produced in 1000 draws", i)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	n := 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := New(11)
	const mean, cv = 100.0, 0.3
	p := NewLogNormal(mean, cv)
	n := 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := p.Draw(r)
		if v < 0 {
			t.Fatal("lognormal produced negative value")
		}
		sum += v
		sum2 += v * v
	}
	m := sum / float64(n)
	sd := math.Sqrt(sum2/float64(n) - m*m)
	if math.Abs(m-mean)/mean > 0.02 {
		t.Errorf("lognormal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(sd/m-cv)/cv > 0.06 {
		t.Errorf("lognormal cv = %v, want ~%v", sd/m, cv)
	}
}

// TestLogNormalDegenerate pins that degenerate parameters and a nil
// generator return the mean without touching the stream, including a cached
// Box-Muller spare.
func TestLogNormalDegenerate(t *testing.T) {
	cases := []struct {
		name string
		want float64
		draw func(r *Rand) float64
	}{
		{"cv=0", 100, NewLogNormal(100, 0).Draw},
		{"cv<0", 100, NewLogNormal(100, -1).Draw},
		{"mean=0", 0, NewLogNormal(0, 0.5).Draw},
		{"mean<0", -5, NewLogNormal(-5, 0.5).Draw},
		{"zero value", 0, LogNormal{}.Draw},
		{"dist cv=0", float64(units.Nanoseconds(100)), func(r *Rand) float64 {
			return float64(LogNormalNs(100, 0).Sample(r))
		}},
		{"dist mean=0", 0, func(r *Rand) float64 {
			return float64(LogNormalNs(0, 0.2).Sample(r))
		}},
	}
	for _, c := range cases {
		r, twin := New(3), New(3)
		r.Norm() // leave a spare cached
		twin.Norm()
		if v := c.draw(r); v != c.want {
			t.Errorf("%s: drew %v, want %v", c.name, v, c.want)
		}
		if r.Norm() != twin.Norm() || r.Uint64() != twin.Uint64() {
			t.Errorf("%s: a degenerate draw moved the stream", c.name)
		}
		if v := c.draw(nil); v != c.want {
			t.Errorf("%s: nil rand drew %v, want %v", c.name, v, c.want)
		}
	}
	if v := NewLogNormal(100, 0.5).Draw(nil); v != 100 {
		t.Errorf("nil rand should return the mean, got %v", v)
	}
}
