package rng

import (
	"fmt"

	"breakband/internal/units"
)

// Dist describes a random duration. Component cost models throughout the
// simulator are expressed as Dists so that a single configuration switch can
// move between exact (deterministic) and noisy operation.
type Dist interface {
	// Sample draws one duration using r. r may be nil only for
	// deterministic distributions.
	Sample(r *Rand) units.Time
	// Mean reports the distribution's mean duration.
	Mean() units.Time
	// String describes the distribution for reports and debugging.
	String() string
}

// Fixed is a deterministic duration.
type Fixed units.Time

// FixedNs builds a Fixed from a float64 nanosecond quantity.
func FixedNs(ns float64) Fixed { return Fixed(units.Nanoseconds(ns)) }

// Sample implements Dist.
func (f Fixed) Sample(*Rand) units.Time { return units.Time(f) }

// Mean implements Dist.
func (f Fixed) Mean() units.Time { return units.Time(f) }

// String implements Dist.
func (f Fixed) String() string { return fmt.Sprintf("fixed(%v)", units.Time(f)) }

// LogNormalDist is a lognormal duration with a given mean and coefficient of
// variation. It models the right-skewed timing of software instruction blocks
// (cache misses, branch mispredictions). Build it with LogNormalNs.
type LogNormalDist struct {
	// p's mean is a whole number of picoseconds, which converts back to
	// units.Time exactly below 2^53 ps (2.5 hours).
	p LogNormal
}

// LogNormalNs builds a LogNormalDist from nanoseconds and a cv.
func LogNormalNs(ns, cv float64) LogNormalDist {
	return LogNormalDist{NewLogNormal(float64(units.Nanoseconds(ns)), cv)}
}

// Sample implements Dist.
func (d LogNormalDist) Sample(r *Rand) units.Time { return units.Time(d.p.Draw(r)) }

// Mean implements Dist.
func (d LogNormalDist) Mean() units.Time { return units.Time(d.p.mean) }

// String implements Dist.
func (d LogNormalDist) String() string {
	return fmt.Sprintf("lognormal(mean=%v cv=%.3f)", d.Mean(), d.p.cv)
}

// Spiked decorates a base distribution with a rare additive spike, modelling
// OS preemption or SMI-style stalls. With probability P a sample gains
// Extra's sample on top of the base sample.
type Spiked struct {
	Base  Dist
	P     float64
	Extra Dist
}

// Sample implements Dist.
func (s Spiked) Sample(r *Rand) units.Time {
	v := s.Base.Sample(r)
	if r != nil && s.P > 0 && r.Float64() < s.P {
		v += s.Extra.Sample(r)
	}
	return v
}

// Mean implements Dist. The spike's expected contribution is included so that
// analytical sums stay aligned with long-run sample means.
func (s Spiked) Mean() units.Time {
	return s.Base.Mean() + units.Time(s.P*float64(s.Extra.Mean()))
}

// String implements Dist.
func (s Spiked) String() string {
	return fmt.Sprintf("spiked(%v p=%g extra=%v)", s.Base, s.P, s.Extra)
}

// Scaled multiplies every sample of a base distribution by a factor. The
// what-if ablations use it to apply "reduce component X by r%" directly to a
// running system.
type Scaled struct {
	Base   Dist
	Factor float64
}

// Sample implements Dist.
func (s Scaled) Sample(r *Rand) units.Time {
	return units.Time(float64(s.Base.Sample(r)) * s.Factor)
}

// Mean implements Dist.
func (s Scaled) Mean() units.Time {
	return units.Time(float64(s.Base.Mean()) * s.Factor)
}

// String implements Dist.
func (s Scaled) String() string { return fmt.Sprintf("scaled(%v x%.3f)", s.Base, s.Factor) }
