package rng

import (
	"testing"

	"breakband/internal/units"
)

var (
	sinkNorm float64
	sinkTime units.Time
)

// BenchmarkNorm measures one standard normal variate: half a Box-Muller
// pair, since every other call returns the cached spare.
func BenchmarkNorm(b *testing.B) {
	b.ReportAllocs()
	r := New(1)
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.Norm()
	}
	sinkNorm = s
}

// BenchmarkLogNormalDistSample measures one NoiseOn software-cost draw the
// way the simulator makes it: through the Dist interface, with the PIO
// copy's calibrated mean and cv.
func BenchmarkLogNormalDistSample(b *testing.B) {
	b.ReportAllocs()
	var d Dist = LogNormalNs(94.25, 0.45)
	r := New(1)
	b.ResetTimer()
	var s units.Time
	for i := 0; i < b.N; i++ {
		s += d.Sample(r)
	}
	sinkTime = s
}

// TestLogNormalDistSampleZeroAlloc pins a jittered draw through the Dist
// interface at zero allocations.
func TestLogNormalDistSampleZeroAlloc(t *testing.T) {
	var d Dist = LogNormalNs(94.25, 0.45)
	r := New(1)
	if allocs := testing.AllocsPerRun(1000, func() { sinkTime += d.Sample(r) }); allocs != 0 {
		t.Errorf("LogNormalDist.Sample allocates %.2f per draw, want 0", allocs)
	}
}
