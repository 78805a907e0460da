// Package profile reimplements the UCS-style scoped profiling the paper uses
// to attribute time to software components.
//
// A measurement wraps a region of simulated software with two timer reads.
// The raw delta includes part of the timer infrastructure's own cost; the
// profiler calibrates that overhead with empty regions (the paper reports
// 49.69 ns, sigma 1.48 over 1000 samples) and subtracts the calibrated mean
// from every subsequent measurement, exactly as the paper describes.
package profile

import (
	"fmt"

	"breakband/internal/sim"
	"breakband/internal/stats"
	"breakband/internal/units"
	"breakband/internal/vtimer"
)

// Profiler collects named scoped measurements on top of a virtual timer.
type Profiler struct {
	timer    *vtimer.Timer
	overhead units.Time // calibrated mean overhead, subtracted per sample
	calib    stats.Summary
	samples  map[string]*stats.Sample
	order    []string
}

// New returns a profiler with zero calibrated overhead. Call Calibrate before
// taking measurements that should match the paper's methodology.
func New(t *vtimer.Timer) *Profiler {
	return &Profiler{timer: t, samples: make(map[string]*stats.Sample)}
}

// Timer exposes the underlying virtual timer.
func (pr *Profiler) Timer() *vtimer.Timer { return pr.timer }

// Overhead reports the calibrated per-measurement overhead being subtracted.
func (pr *Profiler) Overhead() units.Time { return pr.overhead }

// Calibration reports the summary of the most recent calibration run
// (nanoseconds).
func (pr *Profiler) Calibration() stats.Summary { return pr.calib }

// Calibrate measures n empty regions back to back from task t and stores the
// mean raw delta as the overhead to subtract. It returns the calibration
// summary in nanoseconds (mean ~= the paper's 49.69 ns for the default
// configuration).
func (pr *Profiler) Calibrate(t *sim.Task, n int) stats.Summary {
	if n <= 0 {
		panic("profile: calibration needs at least one sample")
	}
	var s stats.Sample
	for i := 0; i < n; i++ {
		t1 := pr.timer.Read(t)
		t2 := pr.timer.Read(t)
		s.Add(pr.timer.TicksToTime(t2 - t1).Ns())
	}
	pr.calib = s.Summarize()
	pr.overhead = units.Nanoseconds(pr.calib.Mean)
	return pr.calib
}

// Token is an open measurement started with Begin.
type Token struct {
	name string
	t1   uint64
}

// Begin opens a measurement scope named name. The timer read costs simulated
// time, perturbing the measured system exactly as real instrumentation does;
// the measurement methodology therefore profiles one component at a time
// (paper §3).
func (pr *Profiler) Begin(t *sim.Task, name string) Token {
	return Token{name: name, t1: pr.timer.Read(t)}
}

// End closes a measurement scope, recording the overhead-corrected duration
// in nanoseconds. It returns the corrected duration.
func (pr *Profiler) End(t *sim.Task, tok Token) units.Time {
	t2 := pr.timer.Read(t)
	raw := pr.timer.TicksToTime(t2 - tok.t1)
	d := raw - pr.overhead
	if d < 0 {
		d = 0
	}
	pr.record(tok.name, d)
	return d
}

// BeginAnon opens a measurement whose scope name is chosen at EndAs time,
// for call sites whose outcome determines the category (e.g. a post attempt
// that may turn out to be a busy post).
func (pr *Profiler) BeginAnon(t *sim.Task) Token {
	return Token{t1: pr.timer.Read(t)}
}

// EndAs closes a measurement under the given scope name.
func (pr *Profiler) EndAs(t *sim.Task, tok Token, name string) units.Time {
	tok.name = name
	return pr.End(t, tok)
}

// Measure profiles fn as a single scope under name and returns the corrected
// duration.
func (pr *Profiler) Measure(t *sim.Task, name string, fn func()) units.Time {
	tok := pr.Begin(t, name)
	fn()
	return pr.End(t, tok)
}

func (pr *Profiler) record(name string, d units.Time) {
	s, ok := pr.samples[name]
	if !ok {
		s = &stats.Sample{}
		pr.samples[name] = s
		pr.order = append(pr.order, name)
	}
	s.Add(d.Ns())
}

// Sample returns the accumulated sample for name, or nil if none exists.
func (pr *Profiler) Sample(name string) *stats.Sample { return pr.samples[name] }

// MeanNs reports the mean measured duration for name in nanoseconds. It
// panics if the scope has no samples, which always indicates a methodology
// bug.
func (pr *Profiler) MeanNs(name string) float64 {
	s := pr.samples[name]
	if s == nil || s.N() == 0 {
		panic(fmt.Sprintf("profile: no samples for scope %q", name))
	}
	return s.Mean()
}

// Names lists scope names in first-recorded order.
func (pr *Profiler) Names() []string {
	out := make([]string, len(pr.order))
	copy(out, pr.order)
	return out
}

// Reset discards all recorded samples but keeps the calibration.
func (pr *Profiler) Reset() {
	pr.samples = make(map[string]*stats.Sample)
	pr.order = nil
}
