// Package sim implements the discrete-event simulation kernel that the whole
// breakband system runs on.
//
// The kernel owns a virtual clock (integer picoseconds) and a priority queue
// of events. Hardware components (PCIe links, NICs, the network fabric) are
// written in event-callback style. Simulated software threads are Tasks
// (task.go): run-to-completion continuations, each a stack of resumable
// Frames executed inside kernel event context. Where a thread would
// suspend, the frame records its program counter, schedules its own resume
// as one pooled event (Pause), and returns to the event loop. Every
// software layer — uct, verbs, ucp, mpi, the osu / perftest drivers and the
// measurement campaign — runs as tasks: no goroutine, no channel handoff,
// zero allocations in steady state.
//
// Tasks never run concurrently with each other or with the kernel: at any
// instant exactly one frame Step or event callback is executing, so shared
// simulation state needs no locking and runs are fully deterministic:
// events at equal timestamps fire in scheduling order (a monotone sequence
// number breaks ties). The golden fixtures pin this end to end.
//
// # Event-queue internals
//
// The queue is built for the hot path — tens of millions of schedule/fire
// pairs per simulated benchmark — rather than for generality:
//
//   - Events live in a pooled arena ([]slot) indexed by a small integer id.
//     Scheduling reuses a free slot instead of heap-allocating, so the
//     steady-state schedule path performs zero allocations.
//   - The priority queue is a hand-rolled value-typed 4-ary min-heap of
//     {at, seq, id} entries ordered by (at, seq). Compared to
//     container/heap's interface-based binary heap this removes the
//     per-operation boxing and interface dispatch and halves the tree
//     depth, trading slightly more comparisons per level for far fewer
//     cache misses.
//   - EventRef is a value handle {kernel, id, generation}. Each slot carries
//     a generation counter bumped on every reuse, so cancelling a fired (and
//     since recycled) event is a detectable no-op rather than a
//     use-after-free of somebody else's event.
//   - Cancellation is lazy: Cancel marks the slot dead and the heap entry is
//     discarded when it surfaces. A live counter keeps Pending O(1).
//
// # Batched time advancement
//
// Tasks carry a lazy local clock (Advance / Pause): consecutive pure-delay
// advances accumulate locally and materialize as a single kernel event at
// the next Pause. The contract: Advance only pure delay, and Pause before
// reading or writing any state outside the simulated thread. See task.go.
//
// # Closure-free continuations
//
// The device models (internal/pcie, internal/fabric, internal/nic) schedule
// one or more events per simulated message. Scheduling those through
// After(d, func(){...}) would allocate a closure per message, so the kernel
// also offers AtArg/AfterArg: the callback func(any) is bound once when the
// component is constructed, and the per-event state (a pooled TLP, DLLP or
// frame — always a pointer, so the any box itself is allocation-free) rides
// in the arg word of the pooled event slot. Steady-state device traffic
// therefore schedules continuations without capturing anything.
//
// ARCHITECTURE.md (repo root) summarizes this event/time contract next to
// the ownership and credit contracts the device layers build on it.
package sim

import (
	"fmt"
	"strings"

	"breakband/internal/trace"
	"breakband/internal/units"
)

// Time aliases the repository-wide picosecond time type for convenience.
type Time = units.Time

// slot is one pooled event in the arena. The schedule-relevant ordering keys
// (at, seq) live in the heap entry, not here, so heap sifting never chases
// arena pointers. An event carries either a plain callback (fn) or an
// argument-taking callback plus its argument (afn, arg): the latter is the
// closure-free form used by the device models, whose continuation functions
// are bound once at construction time and receive the in-flight object
// (a pooled TLP, DLLP or frame) through arg.
type slot struct {
	fn  func()
	afn func(any)
	arg any
	// gen is bumped every time the slot is recycled; EventRefs carry the
	// generation they were issued with, so stale handles are no-ops.
	gen uint32
	// live is true from scheduling until the event fires or is cancelled.
	live bool
}

// heapEnt is a value-typed entry of the 4-ary min-heap.
type heapEnt struct {
	at  Time
	seq uint64
	id  int32
}

// less orders entries by (at, seq): time first, scheduling order at ties.
func (e heapEnt) less(o heapEnt) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// EventRef identifies a scheduled event so it can be cancelled. The zero
// EventRef is valid and cancels nothing.
type EventRef struct {
	k   *Kernel
	id  int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-cancelled, or zero ref is a no-op: the slot generation recorded in
// the ref no longer matches once the slot has been recycled, so a stale ref
// can never kill an unrelated event that happens to reuse the slot.
//
// Cancelling an AtArg/AfterArg event drops the arg without any cleanup: the
// kernel does not know how to dispose of it, so a caller cancelling an
// event that carries a pooled object (a TLP, DLLP or frame) takes over
// ownership and must Release the object through its own reference.
func (r EventRef) Cancel() {
	if r.k == nil {
		return
	}
	s := &r.k.slots[r.id]
	if s.gen != r.gen || !s.live {
		return
	}
	s.live = false
	s.fn = nil
	s.afn = nil
	s.arg = nil
	r.k.live--
}

// Kernel is a discrete-event simulator instance.
type Kernel struct {
	now  Time
	seq  uint64
	heap []heapEnt

	slots []slot
	free  []int32
	live  int // scheduled-and-not-cancelled events; keeps Pending O(1)

	fired   uint64
	tasks   []*Task
	stopped bool
	limit   uint64 // safety valve: max events per Run (0 = unlimited)

	// tracer is the optional flight recorder shared by every component on
	// this kernel's timeline (nil = tracing disabled). It lives on the
	// kernel so layers built at different times observe one ring; each
	// component captures the pointer at construction and guards every emit
	// with a single nil test, keeping the disabled path byte-identical.
	tracer *trace.Tracer
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Fired reports how many events have executed, a cheap progress/size metric
// used by tests.
func (k *Kernel) Fired() uint64 { return k.fired }

// SetEventLimit installs a safety valve: Run panics after n events. Tests use
// it to convert accidental non-termination into a diagnosable failure.
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

// SetTracer installs the system-wide flight recorder. It must be called
// before components are constructed: layers capture the pointer once at
// build time, so a tracer installed later is not observed.
func (k *Kernel) SetTracer(tr *trace.Tracer) { k.tracer = tr }

// Tracer reports the installed flight recorder (nil = tracing disabled).
// Components call this once in their constructors.
func (k *Kernel) Tracer() *trace.Tracer { return k.tracer }

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// it always indicates a causality bug in a component model.
func (k *Kernel) At(at Time, fn func()) EventRef {
	id, s := k.allocSlot(at)
	s.fn = fn
	return EventRef{k: k, id: id, gen: s.gen}
}

// After schedules fn to run d from now. Negative delays panic.
func (k *Kernel) After(d Time, fn func()) EventRef {
	return k.At(k.now+d, fn)
}

// AtArg schedules fn(arg) to run at absolute time at. It is the closure-free
// scheduling form: fn is typically bound once when a component is built, and
// arg carries the per-event object, so the steady-state path captures
// nothing and allocates nothing. arg should be a pointer (or nil): storing a
// non-pointer value in the slot's any field would heap-allocate the very box
// this API exists to avoid.
func (k *Kernel) AtArg(at Time, fn func(any), arg any) EventRef {
	id, s := k.allocSlot(at)
	s.afn = fn
	s.arg = arg
	return EventRef{k: k, id: id, gen: s.gen}
}

// AfterArg schedules fn(arg) to run d from now. See AtArg.
func (k *Kernel) AfterArg(d Time, fn func(any), arg any) EventRef {
	return k.AtArg(k.now+d, fn, arg)
}

// allocSlot takes a pooled slot, marks it live and queues it at time at.
func (k *Kernel) allocSlot(at Time) (int32, *slot) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (now=%v at=%v)", k.now, at))
	}
	var id int32
	if n := len(k.free); n > 0 {
		id = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		id = int32(len(k.slots))
		k.slots = append(k.slots, slot{})
	}
	s := &k.slots[id]
	s.live = true
	k.live++
	k.push(heapEnt{at: at, seq: k.seq, id: id})
	k.seq++
	return id, s
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue empties, Stop is called, or the event
// limit trips. It returns the number of events fired during this call.
func (k *Kernel) Run() uint64 {
	return k.RunUntil(units.MaxTime)
}

// RunUntil executes events with timestamps <= deadline. The clock is left at
// the last executed event's time.
func (k *Kernel) RunUntil(deadline Time) uint64 {
	k.stopped = false
	var fired uint64
	for len(k.heap) > 0 && !k.stopped {
		if k.heap[0].at > deadline {
			break
		}
		e := k.pop()
		s := &k.slots[e.id]
		wasLive := s.live
		fn := s.fn
		afn, arg := s.afn, s.arg
		// Recycle the slot before firing: the callback may cancel other
		// events or schedule new ones (which may reuse this very slot
		// under a fresh generation).
		s.fn = nil
		s.afn = nil
		s.arg = nil
		s.live = false
		s.gen++
		k.free = append(k.free, e.id)
		if !wasLive {
			continue // cancelled while queued
		}
		k.live--
		k.now = e.at
		k.fired++
		fired++
		if k.limit > 0 && k.fired > k.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v (runaway simulation?)", k.limit, k.now))
		}
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
	}
	return fired
}

// Pending reports the number of live events still queued.
func (k *Kernel) Pending() int { return k.live }

// StuckTasks reports the tasks that are still live — neither finished nor
// cancelled — at the moment of the call. After a clean Run (event queue
// drained) the slice is empty: a paused task always holds a scheduled
// resume event, so live tasks can only survive a drain if something
// cancelled their wake-up, and they survive a RunUntil/Stop/event-limit
// exit whenever they are deadlocked or livelocked (e.g. polling a
// completion that can never arrive).
func (k *Kernel) StuckTasks() []*Task {
	var out []*Task
	for _, t := range k.tasks {
		if t.done {
			continue
		}
		out = append(out, t)
	}
	return out
}

// StallReport is the kernel's quiescence watchdog: it renders one line per
// stuck task naming the task and its pause site (the frame type on top of
// its stack plus the stack depth), or "" when every task terminated. Run a
// bounded simulation (RunUntil or SetEventLimit plus recover), then consult
// the report — a non-empty report turns a silent truncated run into stall
// attribution: exactly which simulated threads are blocked, and in which
// layer's frame they stopped.
func (k *Kernel) StallReport() string {
	stuck := k.StuckTasks()
	if len(stuck) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %d stuck task(s) at t=%v (%d event(s) still pending):\n", len(stuck), k.now, k.live)
	for _, t := range stuck {
		fmt.Fprintf(&b, "  - %s\n", t.StallSite())
	}
	return b.String()
}

// --- 4-ary min-heap over heapEnt, ordered by (at, seq) ---

// push inserts e, sifting up from the tail.
func (k *Kernel) push(e heapEnt) {
	k.heap = append(k.heap, e)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the minimum entry, sifting the tail down.
func (k *Kernel) pop() heapEnt {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	k.heap = h[:n]
	h = k.heap
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
