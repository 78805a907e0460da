// Package profile reimplements the UCS-style scoped profiling the paper uses
// to attribute time to software components.
//
// A measurement wraps a region of simulated software with two timer reads.
// The raw delta includes part of the timer infrastructure's own cost; the
// profiler calibrates that overhead with empty regions (the paper reports
// 49.69 ns, sigma 1.48 over 1000 samples) and subtracts the calibrated mean
// from every subsequent measurement, exactly as the paper describes.
//
// Every timer read costs simulated time and perturbs what it measures, so
// the paper times one software component per run ("we do not
// simultaneously measure time in any other component", §3). A node's
// Profiler holds that one selected Scope. The instrumentation sites in uct,
// ucp and mpi begin their scope on every pass; a scope that is not selected
// reads no timer, costs no simulated time and records nothing. Two sites
// name their sample by outcome, and selecting either scope of the pair times
// the site: a post attempt records as LLPPost or BusyPost, a poll as LLPProg
// or EmptyPoll.
package profile

import (
	"fmt"

	"breakband/internal/sim"
	"breakband/internal/stats"
	"breakband/internal/units"
	"breakband/internal/vtimer"
)

// Scope names a timed region of simulated software; its value is the key
// its samples are recorded under.
type Scope string

// Scopes, one per component the measurement campaign reads.
const (
	None Scope = "" // no scope: the profiler times nothing

	// LLP_post stages (§4.1).
	MDSetup    Scope = "md_setup"
	BarrierMD  Scope = "barrier_md"
	BarrierDBC Scope = "barrier_dbc"
	PIOCopy    Scope = "pio_copy"
	LLPPost    Scope = "llp_post"  // a successful post attempt, whole
	BusyPost   Scope = "busy_post" // a post attempt against a full transmit queue
	// LLP_prog (§4.1).
	LLPProg   Scope = "llp_prog"   // a poll that dequeued a completion, callbacks included
	EmptyPoll Scope = "empty_poll" // a poll that found no completion
	// The benchmark's own measurement update (§4.3).
	MeasUpdate Scope = "meas_update"
	// HLP initiation (§5).
	MPIIsend     Scope = "mpi_isend"
	UCPTagSendNB Scope = "ucp_tag_send_nb"
	// The receive-wait breakdown (§5).
	MPIWaitRecv        Scope = "mpi_wait_recv"
	UCPWorkerProgress  Scope = "ucp_worker_progress"
	MPICHRecvCB        Scope = "mpich_recv_cb"
	UCPRecvCB          Scope = "ucp_recv_cb"
	MPICHAfterProgress Scope = "mpich_after_progress"
)

// Partner reports the scope a site that begins s may end as instead, by
// outcome (LLPPost and BusyPost, LLPProg and EmptyPoll); any other scope is
// its own partner.
func (s Scope) Partner() Scope {
	switch s {
	case LLPPost:
		return BusyPost
	case BusyPost:
		return LLPPost
	case LLPProg:
		return EmptyPoll
	case EmptyPoll:
		return LLPProg
	}
	return s
}

// Profiler collects scoped measurements of its selected scope on top of a
// virtual timer.
type Profiler struct {
	timer    *vtimer.Timer
	sel      Scope
	overhead units.Time // calibrated mean overhead, subtracted per sample
	samples  map[Scope]*stats.Sample
}

// New returns a profiler with no scope selected and zero calibrated
// overhead. Call Calibrate before taking measurements that should match the
// paper's methodology.
func New(t *vtimer.Timer) *Profiler {
	return &Profiler{timer: t, samples: make(map[Scope]*stats.Sample)}
}

// Select makes s the one scope the profiler times, replacing any earlier
// selection; None times nothing.
func (pr *Profiler) Select(s Scope) { pr.sel = s }

// Selected reports the selected scope, None when nothing is timed.
func (pr *Profiler) Selected() Scope { return pr.sel }

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
	calib := s.Summarize()
	pr.overhead = units.Nanoseconds(calib.Mean)
	return calib
}

// CalibrateIfSelected runs Calibrate when a scope is selected. Every
// benchmark calls it at start on its initiator's profiler, so a run that
// times nothing reads no timer.
func (pr *Profiler) CalibrateIfSelected(t *sim.Task, n int) {
	if pr.sel != None {
		pr.Calibrate(t, n)
	}
}

// Token is an open measurement started with Begin; the zero Token is a
// scope that was not selected.
type Token struct {
	s  Scope
	t1 uint64
}

// Begin opens scope s when s or its partner is selected. The timer read
// costs simulated time, perturbing the measured system exactly as real
// instrumentation does. Otherwise it reads no timer and returns the zero
// Token.
func (pr *Profiler) Begin(t *sim.Task, s Scope) Token {
	if pr.sel == None || (pr.sel != s && pr.sel != s.Partner()) {
		return Token{}
	}
	return Token{s: s, t1: pr.timer.Read(t)}
}

// End closes tok, recording the overhead-corrected duration under the scope
// it began. The zero Token does nothing.
func (pr *Profiler) End(t *sim.Task, tok Token) { pr.EndAs(t, tok, tok.s) }

// EndAs closes tok under scope s, the outcome of a site that may end as its
// begun scope or that scope's partner. The zero Token does nothing.
func (pr *Profiler) EndAs(t *sim.Task, tok Token, s Scope) {
	if tok.s == None {
		return
	}
	t2 := pr.timer.Read(t)
	d := pr.timer.TicksToTime(t2-tok.t1) - pr.overhead
	if d < 0 {
		d = 0
	}
	smp := pr.samples[s]
	if smp == nil {
		smp = &stats.Sample{}
		pr.samples[s] = smp
	}
	smp.Add(d.Ns())
}

// Sample returns the accumulated sample for s, or nil if none exists.
func (pr *Profiler) Sample(s Scope) *stats.Sample { return pr.samples[s] }

// MeanNs reports the mean measured duration for s in nanoseconds. It panics
// if the scope has no samples, which always indicates a methodology bug.
func (pr *Profiler) MeanNs(s Scope) float64 {
	smp := pr.samples[s]
	if smp == nil || smp.N() == 0 {
		panic(fmt.Sprintf("profile: no samples for scope %q", s))
	}
	return smp.Mean()
}
