package sim

import "testing"

// --- continuation task semantics ---

// tickFrame advances a fixed delta and pauses, forever, counting resumes.
type tickFrame struct {
	pc    int
	ticks *int
}

func (f *tickFrame) Step(t *Task) {
	for {
		switch f.pc {
		case 0:
			t.Advance(10)
			f.pc = 1
			if t.Pause() {
				return
			}
		case 1:
			*f.ticks++
			f.pc = 0
		}
	}
}

func TestTaskCancelStopsResumes(t *testing.T) {
	k := NewKernel()
	ticks := 0
	task := k.SpawnTask("ticker", &tickFrame{ticks: &ticks})
	k.RunUntil(35)
	if ticks != 3 {
		t.Fatalf("ticks before cancel = %d, want 3", ticks)
	}
	task.Cancel()
	if !task.Done() {
		t.Error("cancelled task not done")
	}
	k.RunUntil(200)
	if ticks != 3 {
		t.Errorf("cancelled task ticked again: %d", ticks)
	}
	task.Cancel() // cancelling twice is a no-op
	k.Shutdown()
}

// callerFrame pushes a sub-frame and records whether it ever resumed after
// the call returned.
type callerFrame struct {
	pc      int
	sub     Frame
	resumed *bool
}

func (f *callerFrame) Step(t *Task) {
	switch f.pc {
	case 0:
		f.pc = 1
		t.Call(f.sub)
	case 1:
		*f.resumed = true
		t.Return()
	}
}

// onePauseFrame advances once, pauses once, returns.
type onePauseFrame struct {
	pc int
	d  Time
}

func (f *onePauseFrame) Step(t *Task) {
	for {
		switch f.pc {
		case 0:
			t.Advance(f.d)
			f.pc = 1
			if t.Pause() {
				return
			}
		case 1:
			t.Return()
			return
		}
	}
}

func TestTaskCancelMidChain(t *testing.T) {
	// Cancel while a sub-frame is paused: neither the sub-frame nor its
	// caller may resume, and the scheduled resume event must be dropped.
	k := NewKernel()
	resumed := false
	task := k.SpawnTask("chain", &callerFrame{
		sub:     &onePauseFrame{d: 50},
		resumed: &resumed,
	})
	k.RunUntil(20) // sub-frame is now paused until t=50
	if task.Done() {
		t.Fatal("task finished before its pause elapsed")
	}
	pending := k.Pending()
	task.Cancel()
	if got := k.Pending(); got != pending-1 {
		t.Errorf("cancel dropped %d events, want 1", pending-got)
	}
	k.Run()
	if resumed {
		t.Error("caller frame resumed after mid-chain cancel")
	}
	if !task.Done() {
		t.Error("cancelled task not done")
	}
	k.Shutdown()
}

func TestTaskCancelBeforeStart(t *testing.T) {
	// Cancelling a task whose start event has not fired drops that event.
	k := NewKernel()
	task := k.SpawnTask("unstarted", &stepsFrame{fns: []func(*Task){
		func(*Task) { t.Error("cancelled task ran") },
	}})
	task.Cancel()
	if k.Pending() != 0 {
		t.Errorf("Pending after cancel = %d, want 0", k.Pending())
	}
	if n := k.Run(); n != 0 {
		t.Errorf("Run after cancel fired %d events, want 0", n)
	}
}

// boomFrame pauses once, then panics on resume.
type boomFrame struct{ pc int }

func (f *boomFrame) Step(t *Task) {
	for {
		switch f.pc {
		case 0:
			t.Advance(5)
			f.pc = 1
			if t.Pause() {
				return
			}
		case 1:
			panic("boom: frame failure")
		}
	}
}

func TestTaskPanicPropagatesOutOfRun(t *testing.T) {
	// A panic inside a frame Step executes in kernel event context, so it
	// must surface out of Run (no swallowed errors, no deadlock), and
	// Shutdown afterwards must still clean up without hanging.
	k := NewKernel()
	k.SpawnTask("boom", &boomFrame{})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if got != "boom: frame failure" {
		t.Fatalf("recovered %v, want frame panic", got)
	}
	k.Shutdown()
}

// stepsFrame runs fns in order on one task, pausing after each, which
// materializes any lag the function left behind.
type stepsFrame struct {
	fns []func(t *Task)
	i   int
}

func (f *stepsFrame) Step(t *Task) {
	for f.i < len(f.fns) {
		f.i++
		f.fns[f.i-1](t)
		if t.Pause() {
			return
		}
	}
	t.Return()
}

// parkFrame advances lag, parks with unpark, and records when it resumes.
type parkFrame struct {
	pc      int
	lag     Time
	unpark  func()
	resumed Time
}

func (f *parkFrame) Step(t *Task) {
	switch f.pc {
	case 0:
		t.Advance(f.lag)
		f.pc = 1
		t.Park(f.unpark)
	case 1:
		f.resumed = t.Now()
		t.Return()
	}
}

// TestParkWakeAt: a parked task schedules nothing; WakeAt resumes it at
// exactly the chosen instant with its lag folded in, and refuses an
// instant before the task's clock at Park.
func TestParkWakeAt(t *testing.T) {
	k := NewKernel()
	f := &parkFrame{lag: 30, unpark: func() { t.Error("unpark ran for a woken task") }}
	task := k.SpawnTask("parker", f)
	k.At(10, func() {
		if !task.Parked() || k.Pending() != 0 {
			t.Errorf("at 10: parked %v with %d events pending; want parked and none", task.Parked(), k.Pending())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("WakeAt before the park clock did not panic")
				}
			}()
			task.WakeAt(29, k.Mark())
		}()
		task.WakeAt(45, k.Mark())
	})
	k.Run()
	if f.resumed != 45 || !task.Done() || task.Parked() {
		t.Errorf("resumed at %v (done %v, parked %v), want 45", f.resumed, task.Done(), task.Parked())
	}
	// Spawn, the waker, and the one resume event.
	if k.Fired() != 3 {
		t.Errorf("fired %d events, want 3", k.Fired())
	}
	defer func() {
		if recover() == nil {
			t.Error("WakeAt on a task that is not parked did not panic")
		}
	}()
	task.WakeAt(100, k.Mark())
}

// TestCancelParkedTask: cancelling a parked task runs its unpark once and
// leaves a finished task behind.
func TestCancelParkedTask(t *testing.T) {
	k := NewKernel()
	unparked := 0
	task := k.SpawnTask("parker", &parkFrame{lag: 5, unpark: func() { unparked++ }})
	k.Run()
	if !task.Parked() || task.Done() {
		t.Fatalf("after the drain: parked %v, done %v; want a parked live task", task.Parked(), task.Done())
	}
	task.Cancel()
	task.Cancel()
	if unparked != 1 || task.Parked() || !task.Done() {
		t.Errorf("after Cancel: unpark ran %d times, parked %v, done %v", unparked, task.Parked(), task.Done())
	}
	if rep := k.StallReport(); rep != "" {
		t.Errorf("stall report after cancelling the parked task:\n%s", rep)
	}
}
