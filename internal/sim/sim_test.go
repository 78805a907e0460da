package sim

import (
	"container/heap"
	"sort"
	"testing"
	"testing/quick"

	"breakband/internal/rng"
	"breakband/internal/units"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("clock = %v, want 30", k.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	// Events scheduled for the same instant fire in scheduling order.
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	if !sort.IntsAreSorted(order) {
		t.Error("same-time events fired out of scheduling order")
	}
}

func TestAfter(t *testing.T) {
	k := NewKernel()
	var at Time
	k.After(100, func() {
		at = k.Now()
		k.After(50, func() { at = k.Now() })
	})
	k.Run()
	if at != 150 {
		t.Errorf("nested After landed at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ref := k.At(10, func() { fired = true })
	ref.Cancel()
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling twice or after the run is a no-op.
	ref.Cancel()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(25)
	if len(fired) != 2 {
		t.Errorf("RunUntil(25) fired %v", fired)
	}
	k.Run()
	if len(fired) != 4 {
		t.Errorf("resumed run fired %v", fired)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	n := 0
	k.At(10, func() { n++; k.Stop() })
	k.At(20, func() { n++ })
	k.Run()
	if n != 1 {
		t.Errorf("Stop did not halt the loop, n=%d", n)
	}
}

func TestEventLimit(t *testing.T) {
	k := NewKernel()
	k.SetEventLimit(10)
	var reschedule func()
	reschedule = func() { k.After(1, reschedule) }
	k.After(1, reschedule)
	defer func() {
		if recover() == nil {
			t.Error("runaway simulation did not trip the event limit")
		}
	}()
	k.Run()
}

func TestPending(t *testing.T) {
	k := NewKernel()
	ref := k.At(10, func() {})
	k.At(20, func() {})
	if k.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", k.Pending())
	}
	ref.Cancel()
	if k.Pending() != 1 {
		t.Errorf("Pending after cancel = %d, want 1", k.Pending())
	}
}

func TestTasksInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			var fns []func(*Task)
			for i := 0; i < 5; i++ {
				fns = append(fns, func(t *Task) {
					log = append(log, name)
					t.Advance(10)
				})
			}
			k.SpawnTask(name, &stepsFrame{fns: fns})
		}
		k.Run()
		k.Shutdown()
		return log
	}
	first := run()
	if len(first) != 15 {
		t.Fatalf("interleaving logged %d steps, want 15", len(first))
	}
	for trial := 0; trial < 5; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("interleaving length changed between runs")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("interleaving diverged at %d: %v vs %v", i, got, first)
				}
			}
		}
	}
}

func TestTaskEventInterleaving(t *testing.T) {
	// A task paused across an event sees the event's effects: events and
	// tasks share one timeline.
	k := NewKernel()
	value := 0
	k.At(50, func() { value = 42 })
	var seen int
	k.SpawnTask("reader", &stepsFrame{fns: []func(*Task){
		func(t *Task) { t.Advance(60) },
		func(t *Task) { seen = value },
	}})
	k.Run()
	if seen != 42 {
		t.Errorf("task observed %d, want 42", seen)
	}
}

func TestShutdownCancelsPausedTasks(t *testing.T) {
	k := NewKernel()
	ticks := 0
	task := k.SpawnTask("ticker", &tickFrame{ticks: &ticks})
	k.RunUntil(15) // paused until t=20
	k.Shutdown()
	if !task.Done() {
		t.Fatal("paused task not cancelled by Shutdown")
	}
	if k.Pending() != 0 {
		t.Errorf("Pending after Shutdown = %d, want 0", k.Pending())
	}
	if n := k.Run(); n != 0 || ticks != 1 {
		t.Errorf("after Shutdown: fired %d events, ticks = %d; want 0 and 1", n, ticks)
	}
}

func TestShutdownBeforeStart(t *testing.T) {
	// A task whose start event never fires must still terminate cleanly,
	// and its start event must not outlive it.
	k := NewKernel()
	task := k.SpawnTask("never", &stepsFrame{fns: []func(*Task){
		func(*Task) { t.Error("body of never-started task ran") },
	}})
	// Do not run the kernel at all.
	k.Shutdown()
	if !task.Done() {
		t.Error("never-started task not done after Shutdown")
	}
	if k.Pending() != 0 {
		t.Errorf("Pending after Shutdown = %d, want 0 (start event left live)", k.Pending())
	}
	if n := k.Run(); n != 0 {
		t.Errorf("Run after Shutdown fired %d events, want 0", n)
	}
}

func TestQuickEventOrderInvariant(t *testing.T) {
	// Property: for any set of delays, execution times are non-decreasing.
	f := func(delays []uint16) bool {
		k := NewKernel()
		var times []Time
		for _, d := range delays {
			k.At(Time(d), func() { times = append(times, k.Now()) })
		}
		k.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- event cancellation under pooling ---

func TestCancelAfterFireIsNoop(t *testing.T) {
	k := NewKernel()
	fired := 0
	ref := k.At(10, func() { fired++ })
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// The slot is recycled; the stale ref must not touch its new tenant.
	ok := false
	k.At(20, func() { ok = true })
	ref.Cancel()
	if k.Pending() != 1 {
		t.Errorf("stale Cancel changed Pending: %d", k.Pending())
	}
	k.Run()
	if !ok {
		t.Error("stale Cancel killed an unrelated event in the reused slot")
	}
}

func TestCancelTwiceAndPending(t *testing.T) {
	k := NewKernel()
	ref := k.At(10, func() { t.Error("cancelled event fired") })
	k.At(20, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	ref.Cancel()
	ref.Cancel() // second cancel: no-op, must not double-decrement
	if k.Pending() != 1 {
		t.Errorf("Pending after double cancel = %d, want 1", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Errorf("Pending after run = %d, want 0", k.Pending())
	}
}

func TestCancelGenerationMismatchOnReusedSlot(t *testing.T) {
	k := NewKernel()
	// Fire one event so its slot returns to the pool.
	stale := k.At(5, func() {})
	k.Run()
	// The next schedule reuses the slot under a bumped generation.
	fired := false
	fresh := k.At(10, func() { fired = true })
	stale.Cancel() // generation mismatch: must be a no-op
	if k.Pending() != 1 {
		t.Fatalf("stale cancel affected Pending: %d", k.Pending())
	}
	k.Run()
	if !fired {
		t.Error("generation-mismatched Cancel killed the slot's new event")
	}
	fresh.Cancel() // after fire: also a no-op
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", k.Pending())
	}
}

func TestZeroEventRefCancel(t *testing.T) {
	var ref EventRef
	ref.Cancel() // must not panic
}

func TestCancelInsideOwnCallback(t *testing.T) {
	k := NewKernel()
	var self EventRef
	n := 0
	self = k.At(10, func() {
		n++
		self.Cancel() // the slot is already recycled: no-op
	})
	k.At(10, func() { n++ })
	k.Run()
	if n != 2 {
		t.Errorf("fired %d events, want 2", n)
	}
}

// --- fuzz-style schedule/cancel soak against a container/heap reference ---

// refKernel reimplements the event queue exactly as the pre-optimization
// kernel did (container/heap over *event with a dead flag), as an oracle for
// the pooled 4-ary heap.
type refKernel struct {
	now    Time
	seq    uint64
	events refHeap
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (r *refKernel) at(at Time, fn func()) *refEvent {
	e := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.events, e)
	return e
}
func (r *refKernel) runUntil(deadline Time) {
	for len(r.events) > 0 {
		e := r.events[0]
		if e.at > deadline {
			return
		}
		heap.Pop(&r.events)
		if e.dead {
			continue
		}
		r.now = e.at
		e.fn()
	}
}

// TestSoakAgainstReferenceHeap drives the pooled kernel and the reference
// through an identical randomized schedule/cancel/run workload and demands
// identical firing sequences (event identity and timestamp) plus an always
// consistent O(1) Pending counter.
func TestSoakAgainstReferenceHeap(t *testing.T) {
	rnd := rng.New(42)
	k := NewKernel()
	ref := &refKernel{}

	var gotLog, wantLog [][2]uint64
	type pair struct {
		newRef EventRef
		oldRef *refEvent
		id     uint64
	}
	var live []pair
	var nextID uint64

	for round := 0; round < 200; round++ {
		// Schedule a burst at random offsets (including co-timed events).
		for n := rnd.Intn(20); n > 0; n-- {
			id := nextID
			nextID++
			d := Time(rnd.Intn(50))
			at := k.Now() + d
			live = append(live, pair{
				newRef: k.At(at, func() { gotLog = append(gotLog, [2]uint64{id, uint64(k.Now())}) }),
				oldRef: ref.at(at, func() { wantLog = append(wantLog, [2]uint64{id, uint64(ref.now)}) }),
				id:     id,
			})
		}
		// Cancel a few random refs — some pending, some long fired, so
		// stale handles constantly poke recycled slots.
		for n := rnd.Intn(6); n > 0 && len(live) > 0; n-- {
			i := rnd.Intn(len(live))
			live[i].newRef.Cancel()
			live[i].oldRef.dead = true
		}
		// Run both to the same random deadline.
		deadline := k.Now() + Time(rnd.Intn(40))
		k.RunUntil(deadline)
		ref.runUntil(deadline)

		if len(gotLog) != len(wantLog) {
			t.Fatalf("round %d: fired %d events, reference fired %d", round, len(gotLog), len(wantLog))
		}
		// Cross-check the O(1) live counter against the reference queue.
		wantPending := 0
		for _, e := range ref.events {
			if !e.dead {
				wantPending++
			}
		}
		if k.Pending() != wantPending {
			t.Fatalf("round %d: Pending = %d, reference = %d", round, k.Pending(), wantPending)
		}
	}
	k.Run()
	ref.runUntil(units.MaxTime)
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("firing sequence diverged at %d: got id=%d t=%d, want id=%d t=%d",
				i, gotLog[i][0], gotLog[i][1], wantLog[i][0], wantLog[i][1])
		}
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("total fired %d vs reference %d", len(gotLog), len(wantLog))
	}
}

// --- batched time advancement ---

func TestAdvanceIsLazy(t *testing.T) {
	k := NewKernel()
	value := 0
	k.At(50, func() { value = 42 })
	var lazySaw, pausedSaw int
	var taskNow, kernelNow Time
	k.SpawnTask("lazy", &stepsFrame{fns: []func(*Task){
		func(t *Task) {
			t.Advance(60)
			t.Advance(40)
			taskNow, kernelNow = t.Now(), k.Now()
			lazySaw = value // no Pause yet: the t=50 event has not fired
		},
		func(t *Task) { pausedSaw = value },
	}})
	fired := k.Run()
	if taskNow != 100 {
		t.Errorf("task Now = %v, want 100", taskNow)
	}
	if kernelNow != 0 {
		t.Errorf("kernel Now during lazy span = %v, want 0", kernelNow)
	}
	if lazySaw != 0 {
		t.Errorf("lazy read saw %d; Advance must not run co-pending events", lazySaw)
	}
	if pausedSaw != 42 {
		t.Errorf("post-Pause read saw %d, want 42", pausedSaw)
	}
	if k.Now() != 100 {
		t.Errorf("kernel clock = %v after run, want 100", k.Now())
	}
	// Spawn start + the t=50 event + one combined resume: the two advances
	// cost one event.
	if fired != 3 {
		t.Errorf("fired %d events, want 3", fired)
	}
}

func TestPauseWithoutLagDoesNotYield(t *testing.T) {
	k := NewKernel()
	k.SpawnTask("noop", &stepsFrame{fns: []func(*Task){
		func(tk *Task) {
			before := k.Fired()
			if tk.Pause() {
				t.Error("Pause with zero lag suspended the task")
			}
			if k.Fired() != before || k.Pending() != 0 {
				t.Error("Pause with zero lag scheduled an event")
			}
		},
	}})
	k.Run()
}

func TestNegativeAdvancePanics(t *testing.T) {
	k := NewKernel()
	k.SpawnTask("bad", &stepsFrame{fns: []func(*Task){
		func(tk *Task) {
			defer func() {
				if recover() == nil {
					t.Error("negative advance did not panic")
				}
			}()
			tk.Advance(-1)
		},
	}})
	k.Run()
	k.Shutdown()
}

// A negative delay must panic even when lag is pending: it may not cancel
// out time the task has already advanced, and it leaves that lag untouched.
func TestProcNegativeSleepPanics(t *testing.T) {
	k := NewKernel()
	var after Time
	k.SpawnTask("bad", &stepsFrame{fns: []func(*Task){
		func(tk *Task) {
			tk.Advance(30)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("negative advance with pending lag did not panic")
					}
				}()
				tk.Advance(-10)
			}()
			after = tk.Now()
		},
	}})
	k.Run()
	k.Shutdown()
	if after != 30 {
		t.Errorf("Now after rejected advance = %v, want 30", after)
	}
}

// Pending lag and a further delay materialize as a single kernel event.
func TestSleepFoldsPendingLag(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.SpawnTask("fold", &stepsFrame{fns: []func(*Task){
		func(tk *Task) {
			tk.Advance(30)
			tk.Advance(20) // the frame's Pause materializes 30+20 as one event
		},
		func(tk *Task) { woke = tk.Now() },
	}})
	fired := k.Run()
	if woke != 50 {
		t.Errorf("woke at %v, want 50", woke)
	}
	// Spawn start + one combined resume: the two advances cost one event.
	if fired != 2 {
		t.Errorf("fired %d events, want 2", fired)
	}
}

func TestAfterArg(t *testing.T) {
	k := NewKernel()
	type payload struct{ v int }
	arg := &payload{v: 7}
	var got *payload
	var at Time
	fn := func(a any) {
		got = a.(*payload)
		at = k.Now()
	}
	k.AfterArg(5, fn, arg)
	k.Run()
	if got != arg || at != 5 {
		t.Errorf("AfterArg fired with %v at %v, want %v at 5", got, at, arg)
	}
}

func TestAfterArgCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ref := k.AfterArg(5, func(any) { fired = true }, nil)
	ref.Cancel()
	k.Run()
	if fired {
		t.Error("cancelled AfterArg event fired")
	}
	if k.Pending() != 0 {
		t.Errorf("pending = %d after cancel", k.Pending())
	}
}

func TestAfterArgInterleavesWithAfter(t *testing.T) {
	// Arg-carrying and plain events share the pool and the (at, seq)
	// order; a recycled slot must not leak one form's callback into the
	// other.
	k := NewKernel()
	var order []int
	one, two := 1, 2
	k.After(1, func() { order = append(order, 0) })
	k.AfterArg(1, func(a any) { order = append(order, *a.(*int)) }, &one)
	k.Run()
	k.After(1, func() { order = append(order, 3) }) // reuses the arg slot
	k.AfterArg(1, func(a any) { order = append(order, *a.(*int)) }, &two)
	k.Run()
	want := []int{0, 1, 3, 2}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
