package workload

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"breakband/internal/rng"
	"breakband/internal/stats"
	"breakband/internal/units"
)

// clockFor compiles a bare arrival clock for distribution tests: cohort
// start 0, a horizon long enough that no test draw is retired.
func clockFor(proc string, rate, shape float64, env []EnvelopeWindow) arrivalClock {
	c := &Cohort{
		Start:    0,
		Duration: units.MaxTime / 2,
		Arrival:  ArrivalSpec{Process: proc, Rate: rate, Shape: shape},
		Envelope: env,
	}
	return newArrivalClock(c)
}

// gaps draws n consecutive interarrival times (in picoseconds) from a fixed
// stream.
func gaps(clock arrivalClock, streamName string, n int) []float64 {
	r := rng.Stream(99, streamName)
	out := make([]float64, n)
	prev := units.Time(0)
	for i := range out {
		next := clock.next(prev, r)
		out[i] = float64(next - prev)
		prev = next
	}
	return out
}

// TestInterarrivalMoments is the fixed-seed moment battery: the mean of every
// process must be 1/rate and the CV must match the analytic value for the
// process (1 for Poisson, 1/sqrt(shape) for Gamma, the Gamma-function ratio
// for Weibull).
func TestInterarrivalMoments(t *testing.T) {
	const n = 200_000
	cases := []struct {
		proc   string
		rate   float64 // per second
		shape  float64
		wantCV float64
	}{
		{ProcPoisson, 1e6, 0, 1},
		{ProcGamma, 2e6, 4, 0.5},
		{ProcGamma, 5e5, 0.5, math.Sqrt2},
		{ProcWeibull, 1e6, 0.7, rng.WeibullCV(0.7)},
		{ProcWeibull, 1e6, 2, rng.WeibullCV(2)},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/shape=%g", tc.proc, tc.shape)
		t.Run(name, func(t *testing.T) {
			clock := clockFor(tc.proc, tc.rate, tc.shape, nil)
			var s stats.Sample
			for _, g := range gaps(clock, "moments/"+name, n) {
				s.Add(g)
			}
			wantMean := float64(units.Second) / tc.rate // ps per arrival
			if rel := math.Abs(s.Mean()-wantMean) / wantMean; rel > 0.02 {
				t.Errorf("mean %.1fps, want %.1fps (rel err %.4f)", s.Mean(), wantMean, rel)
			}
			cv := s.Std() / s.Mean()
			if rel := math.Abs(cv-tc.wantCV) / tc.wantCV; rel > 0.03 {
				t.Errorf("cv %.4f, want %.4f (rel err %.4f)", cv, tc.wantCV, rel)
			}
		})
	}
}

// TestArrivalClockSaturates: a draw that would land past the end of the
// picosecond clock saturates at units.MaxTime, which retires the client,
// instead of wrapping to a negative instant inside the window.
func TestArrivalClockSaturates(t *testing.T) {
	c := &Cohort{
		Start:    9e6 * units.Second,
		Duration: units.Second,
		Arrival:  ArrivalSpec{Process: ProcPoisson, Rate: 1e-6},
	}
	clock := newArrivalClock(c)
	r := rng.Stream(1, "saturate")
	for i := 0; i < 100; i++ {
		if at := clock.next(c.Start, r); at < c.End() {
			t.Fatalf("draw %d: arrival at %v inside [%v, %v)", i, at, c.Start, c.End())
		}
	}
}

// TestEnvelopeWindowRates checks the operational time change: within a
// factor-F window the realized arrival rate is F times the base rate, and
// outside every window it is the base rate.
func TestEnvelopeWindowRates(t *testing.T) {
	const (
		rate   = 1e8 // per second, high enough for tight counts
		factor = 3.0
	)
	var (
		winFrom = 100 * units.Microsecond
		winTo   = 300 * units.Microsecond
		horizon = 400 * units.Microsecond
	)
	clock := clockFor(ProcPoisson, rate, 0, []EnvelopeWindow{{From: winFrom, To: winTo, Factor: factor}})
	r := rng.Stream(17, "envelope")
	var before, inside, after int
	for at := clock.next(0, r); at < horizon; at = clock.next(at, r) {
		switch {
		case at < winFrom:
			before++
		case at < winTo:
			inside++
		default:
			after++
		}
	}
	ratePs := rate / float64(units.Second)
	check := func(name string, got int, span units.Time, f float64) {
		want := ratePs * f * float64(span)
		if rel := math.Abs(float64(got)-want) / want; rel > 0.05 {
			t.Errorf("%s: %d arrivals, want ~%.0f (rel err %.4f)", name, got, want, rel)
		}
	}
	check("before window", before, winFrom, 1)
	check("inside window", inside, winTo-winFrom, factor)
	check("after window", after, horizon-winTo, 1)
}

// TestPoissonChiSquare bins the exponential CDF of generated interarrivals
// into 20 equiprobable cells; the chi-square statistic must stay below the
// 19-dof p=0.001 critical value at the fixed seed.
func TestPoissonChiSquare(t *testing.T) {
	const (
		n    = 20_000
		bins = 20
		crit = 43.82 // chi-square, 19 dof, p = 0.001
	)
	clock := clockFor(ProcPoisson, 1e6, 0, nil)
	var obs [bins]int
	for _, g := range gaps(clock, "chisq", n) {
		u := 1 - math.Exp(-clock.ratePs*g)
		b := int(u * bins)
		if b >= bins {
			b = bins - 1
		}
		obs[b]++
	}
	exp := float64(n) / bins
	chi2 := 0.0
	for _, o := range obs {
		d := float64(o) - exp
		chi2 += d * d / exp
	}
	if chi2 > crit {
		t.Errorf("chi-square %.2f exceeds the %.2f critical value", chi2, crit)
	}
}

// TestPoissonKS is the Kolmogorov-Smirnov sanity check on the same
// exponential transform: sqrt(n)*D_n must stay below the p=0.001 critical
// value at the fixed seed.
func TestPoissonKS(t *testing.T) {
	const (
		n    = 20_000
		crit = 1.95 // K_alpha for p = 0.001
	)
	clock := clockFor(ProcPoisson, 1e6, 0, nil)
	us := make([]float64, 0, n)
	for _, g := range gaps(clock, "ks", n) {
		us = append(us, 1-math.Exp(-clock.ratePs*g))
	}
	sort.Float64s(us)
	d := 0.0
	for i, u := range us {
		hi := float64(i+1)/n - u // D+ at this order statistic
		lo := u - float64(i)/n   // D-
		if hi > d {
			d = hi
		}
		if lo > d {
			d = lo
		}
	}
	if stat := math.Sqrt(n) * d; stat > crit {
		t.Errorf("KS statistic %.3f exceeds the %.2f critical value", stat, crit)
	}
}
