// Package simtest scripts simulated threads for tests: a list of plain Go
// steps run in order on one sim.Task, so a test reads top to bottom instead
// of as a hand-written pc switch.
//
// Each Step runs inside the task. It may Advance the task's lazy clock and
// start at most one sub-frame (a Start* call of the software stacks, a Seq
// or a While); the next step runs only after that sub-frame has returned,
// so it can read the Last* results. Between steps the script pauses, which
// materializes any lag the step left behind: a step that advanced time is
// followed by a step that observes every event up to the new instant.
//
//	simtest.Start(sys.K, "tx",
//		func(t *sim.Task) { ep.StartPut(t, payload) },
//		func(t *sim.Task) { check(ep.LastPost()) },
//		simtest.While(func() bool { return ep.InFlight() > 0 }, w.StartProgress),
//	)
package simtest

import "breakband/internal/sim"

// Step is one scripted action; see the package documentation.
type Step = func(t *sim.Task)

// Start spawns a task on k that runs steps in order.
func Start(k *sim.Kernel, name string, steps ...Step) *sim.Task {
	return k.SpawnTask(name, &script{steps: steps})
}

// Seq returns a step that runs steps as a nested script, so a helper can
// hand out several steps (start an operation, then check its result) as one.
func Seq(steps ...Step) Step {
	return func(t *sim.Task) { t.Call(&script{steps: steps}) }
}

// While returns a step that runs body, as a nested script, for as long as
// cond reports true. cond is checked before every pass, after the previous
// pass (and its sub-frames) has completed.
func While(cond func() bool, body ...Step) Step {
	return func(t *sim.Task) { t.Call(&loop{cond: cond, body: body}) }
}

// script is the frame behind Start, Seq and each While pass.
type script struct {
	steps []Step
	i     int
	ran   bool // steps[i-1] has run and any sub-frame it started returned
}

func (s *script) Step(t *sim.Task) {
	if s.ran {
		s.ran = false
		if t.Pause() {
			return
		}
	}
	if s.i == len(s.steps) {
		t.Return()
		return
	}
	s.ran = true
	s.i++
	s.steps[s.i-1](t)
	// Return even when the step started nothing: the task re-enters this
	// frame, or first runs the sub-frame the step pushed.
}

// loop is the frame behind While.
type loop struct {
	cond func() bool
	body []Step
}

func (l *loop) Step(t *sim.Task) {
	if !l.cond() {
		t.Return()
		return
	}
	t.Call(&script{steps: l.body})
}
