// Package profile reimplements the UCS-style scoped profiling the paper uses
// to attribute time to software components.
//
// A measurement wraps a region of simulated software with two timer reads,
// each an "isb; mrs cntvct_el0". The paper asks for precise CPU timers: at
// 1 THz the counter is the reading task's virtual time in picoseconds, so
// the profiler's timer is the task clock. The raw delta includes part of
// the timer infrastructure's own cost; the profiler calibrates that
// overhead with empty regions (the paper reports 49.69 ns, sigma 1.48 over
// 1000 samples) and subtracts the calibrated mean from every subsequent
// measurement, exactly as the paper describes.
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

	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/stats"
	"breakband/internal/units"
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

// CalibrationSamples is how many empty scopes Calibrate averages (the
// paper used 1000).
const CalibrationSamples = 1000

// Profiler collects scoped measurements of its selected scope.
type Profiler struct {
	isb      rng.Dist // the barrier before each counter read
	read     rng.Dist // the register read plus recording the sample
	r        *rng.Rand
	sel      Scope
	overhead units.Time // calibrated mean overhead, subtracted per sample
	samples  map[Scope]*stats.Sample
}

// New returns a profiler whose timer reads cost isb then read, drawn from
// r (nil when both are deterministic), with no scope selected and zero
// calibrated overhead. Call Calibrate before taking measurements that
// should match the paper's methodology.
func New(isb, read rng.Dist, r *rng.Rand) *Profiler {
	return &Profiler{isb: isb, read: read, r: r, samples: make(map[Scope]*stats.Sample)}
}

// readTimer reads the counter from task t: it pays the isb, samples t's
// clock, then pays the register read plus recording the sample. Both
// costs are pure delays, so a read costs simulated time but no suspension.
func (pr *Profiler) readTimer(t *sim.Task) units.Time {
	t.Advance(pr.isb.Sample(pr.r))
	v := t.Now()
	t.Advance(pr.read.Sample(pr.r))
	return v
}

// Select makes s the one scope the profiler times, replacing any earlier
// selection; None times nothing.
func (pr *Profiler) Select(s Scope) { pr.sel = s }

// Selected reports the selected scope, None when nothing is timed.
func (pr *Profiler) Selected() Scope { return pr.sel }

// Calibrate measures CalibrationSamples empty regions back to back from
// task t and stores the mean raw delta as the overhead to subtract. It
// returns the calibration summary in nanoseconds (mean ~= the paper's
// 49.69 ns for the default configuration).
func (pr *Profiler) Calibrate(t *sim.Task) stats.Summary {
	var s stats.Sample
	for i := 0; i < CalibrationSamples; i++ {
		t1 := pr.readTimer(t)
		t2 := pr.readTimer(t)
		s.Add((t2 - t1).Ns())
	}
	calib := s.Summarize()
	pr.overhead = units.Nanoseconds(calib.Mean)
	return calib
}

// CalibrateIfSelected runs Calibrate when a scope is selected. Every
// benchmark calls it at start on its initiator's profiler, so a run that
// times nothing reads no timer.
func (pr *Profiler) CalibrateIfSelected(t *sim.Task) {
	if pr.sel != None {
		pr.Calibrate(t)
	}
}

// Token is an open measurement started with Begin; the zero Token is a
// scope that was not selected.
type Token struct {
	s  Scope
	t1 units.Time
}

// Times reports whether Begin(t, s) reads the timer: whether s or its
// partner is selected.
func (pr *Profiler) Times(s Scope) bool {
	return pr.sel != None && (pr.sel == s || pr.sel == s.Partner())
}

// Begin opens scope s when s or its partner is selected. The timer read
// costs simulated time, perturbing the measured system exactly as real
// instrumentation does. Otherwise it reads no timer and returns the zero
// Token.
func (pr *Profiler) Begin(t *sim.Task, s Scope) Token {
	if !pr.Times(s) {
		return Token{}
	}
	return Token{s: s, t1: pr.readTimer(t)}
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
	d := pr.readTimer(t) - tok.t1 - pr.overhead
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
