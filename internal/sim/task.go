package sim

import "fmt"

// Frame is one resumable activation record of a continuation task. Step is
// re-entered every time the task resumes with this frame on top of the
// stack; the frame keeps its own program counter and locals across pauses.
//
// The canonical shape is a loop around a pc switch:
//
//	func (f *fooFrame) Step(t *sim.Task) {
//		for {
//			switch f.pc {
//			case 0:
//				t.Advance(cost)
//				f.pc = 1
//				if t.Pause() {
//					return // resumes at case 1 when the lag event fires
//				}
//			case 1:
//				touchSharedState()
//				t.Return()
//				return
//			}
//		}
//	}
//
// Step must leave via return immediately after Pause reports true, after
// Call (pushing a sub-frame), or after Return (popping itself). Pause with
// no pending lag reports false and the loop simply continues inline.
type Frame interface {
	Step(t *Task)
}

// Task is a run-to-completion simulated thread: one sequential software
// agent (a CPU core running a benchmark, a progress loop, ...). A task owns
// a stack of Frames and executes them inside kernel event context; where the
// thread would suspend, a task schedules its own resume through the pooled
// AtArg/AfterArg machinery and returns to the event loop. Suspending and
// resuming a task costs exactly one pooled kernel event.
//
// # Batched time advancement
//
// The software stacks above the kernel advance time in long runs of pure
// delays — model stages that touch nothing but the task's own state.
// Advance accumulates such delays in a task-local lazy clock instead of
// suspending: Now reflects the accumulated lag immediately, while the
// kernel's clock lags behind until the task synchronizes. Pause materializes
// the whole accumulated lag as a single kernel event.
//
// The correctness contract: between an Advance and the next Pause the task
// must not interact with state outside itself — no simulated memory reads or
// writes, no MMIO, no posting of receive credits, nothing an event callback
// could observe or mutate. Pause immediately before any such interaction;
// the task then observes exactly the state it would have seen had every
// delay been materialized on its own, and runs remain bit-for-bit identical.
//
// Tasks never run concurrently with each other or the kernel: at any
// instant exactly one frame Step or event callback is executing.
type Task struct {
	k    *Kernel
	name string
	// lag is the task-local lazy clock: virtual time the task has advanced
	// past the kernel clock without pausing yet.
	lag    Time
	stack  []Frame
	paused bool
	done   bool
	// pending is the scheduled start or resume event (for Cancel).
	pending EventRef
}

// taskStep is the shared continuation entry point: the task pointer rides in
// the pooled event slot's arg word, so scheduling a resume allocates
// nothing.
func taskStep(a any) { a.(*Task).step() }

// SpawnTask starts a continuation task with root as its outermost frame. The
// first Step runs when the kernel reaches the spawn event; the task
// completes when its frame stack empties.
func (k *Kernel) SpawnTask(name string, root Frame) *Task {
	t := &Task{k: k, name: name}
	t.stack = append(make([]Frame, 0, 8), root)
	k.tasks = append(k.tasks, t)
	t.pending = k.AfterArg(0, taskStep, t)
	return t
}

// step runs frames until the task pauses or its stack empties. It executes
// in kernel (event) context.
func (t *Task) step() {
	t.paused = false
	for !t.paused && len(t.stack) > 0 {
		t.stack[len(t.stack)-1].Step(t)
	}
	if len(t.stack) == 0 {
		t.done = true
	}
}

// Name reports the name the task was spawned with.
func (t *Task) Name() string { return t.name }

// StallSite describes where a live task currently sits: its name, the type
// of the frame on top of its stack (the pause site — frame types are
// layer-specific, so %T names the blocked layer directly), and the stack
// depth. The kernel's StallReport renders one StallSite per stuck task.
func (t *Task) StallSite() string {
	if len(t.stack) == 0 {
		return fmt.Sprintf("%s: empty frame stack", t.name)
	}
	return fmt.Sprintf("%s: paused in %T (stack depth %d)", t.name, t.stack[len(t.stack)-1], len(t.stack))
}

// Kernel returns the owning kernel.
func (t *Task) Kernel() *Kernel { return t.k }

// Done reports whether the task's frame stack has emptied.
func (t *Task) Done() bool { return t.done }

// Now reports current virtual time as observed by this task: the kernel
// clock plus any not-yet-materialized lag.
func (t *Task) Now() Time { return t.k.now + t.lag }

// Advance adds d to the task's lazy clock without suspending: the delay
// becomes visible in Now immediately and is materialized by the next Pause.
// Use it for pure delays only — see the batched-advancement contract in the
// type documentation.
func (t *Task) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %v in task %q", d, t.name))
	}
	t.lag += d
}

// Pause materializes any pending lag as one kernel event and suspends the
// task until it fires, bringing the kernel clock up to the task's local
// clock so every event scheduled in between has fired. With no pending lag
// it is free. It reports whether the task actually suspended: the caller's
// Step must return immediately when Pause reports true, and simply continue
// when it reports false.
func (t *Task) Pause() bool {
	if t.lag == 0 {
		return false
	}
	d := t.lag
	t.lag = 0
	t.paused = true
	t.pending = t.k.AfterArg(d, taskStep, t)
	return true
}

// Call pushes f as a sub-frame; it begins executing before the caller's
// Step is re-entered, and the caller resumes (at its updated pc) once f
// Returns. Set the pc past the call site before calling, then return from
// Step.
func (t *Task) Call(f Frame) {
	t.stack = append(t.stack, f)
}

// Return pops the current frame: the sub-frame's way of completing back to
// its caller (or, for the root frame, of finishing the task). The frame's
// Step must return immediately afterwards. Results travel through fields on
// the frame, which the caller owns.
func (t *Task) Return() {
	t.stack = t.stack[:len(t.stack)-1]
}

// Cancel terminates a task that has not finished — paused mid-chain or not
// yet started: its scheduled start or resume event is cancelled and no
// further frames run. Cancelling a finished task is a no-op.
func (t *Task) Cancel() {
	if t.done {
		return
	}
	t.done = true
	t.pending.Cancel()
	t.stack = t.stack[:0]
}

// Shutdown cancels every task that has not finished. It must be called
// outside Run (after the event loop returns). Tasks hold no goroutines, so
// cancelling in place (dropping their pending start or resume events) is
// the whole cleanup.
func (k *Kernel) Shutdown() {
	for _, t := range k.tasks {
		t.Cancel()
	}
	k.tasks = nil
}
