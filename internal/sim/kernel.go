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
// software layer — uct, ucp, mpi, the osu / perftest drivers and the
// measurement campaign — runs as tasks: no goroutine, no channel handoff,
// zero allocations in steady state.
//
// A task that would only spin until another component acts parks instead
// (Task.Park): it schedules nothing, and the component's event callback
// wakes it (Task.WakeAt) at the instant the spin would have noticed. The
// wait loops of uct, ucp and MPI park this way on an empty completion
// queue, through uct's one park.
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
//     {at, seq, id, lead} entries ordered by (at, seq); lead, how far
//     ahead of the clock the event was queued, fills what would be
//     padding. Compared to
//     container/heap's interface-based binary heap this removes the
//     per-operation boxing and interface dispatch and halves the tree
//     depth, trading slightly more comparisons per level for far fewer
//     cache misses.
//   - EventRef is a value handle {kernel, id, generation}. Each slot carries
//     a generation counter bumped on every reuse, so cancelling a fired (and
//     since recycled) event is a detectable no-op rather than a
//     use-after-free of somebody else's event.
//   - Cancellation is lazy: Cancel marks the slot dead and the heap entry is
//     discarded when it surfaces. A live counter keeps Pending O(1). Lazy
//     entries must not pile up, though: a QP's ACK timer is cancelled each
//     time its tail is acknowledged, and on an open-loop workload such
//     cancelled timers made most of the heap. So when a Cancel leaves more
//     cancelled entries than live ones, the kernel purges them all at once,
//     recycling their slots, and rebuilds the heap in place from the live
//     entries. At least half the heap is dead at a purge, so it costs
//     O(log n) amortized per Cancel. (at, seq) keys are unique, so the pop
//     order — and every fired event and Fired count — is the same as
//     without it.
//   - A reservation is an event's place in the order without the event:
//     Reserve(at) takes the seq At(at, ...) would take, so every other
//     event keeps its own, and queues nothing. A component reserves a
//     state change that nothing reads yet and settles it when it next
//     reads that state: Due reports whether the reservation is ordered
//     before the running event (RunUntil records the running event's
//     seq), and a reader settles every due reservation first, in order,
//     so it sees exactly what the real event would have left. When
//     something must happen at the reserved instant itself, Materialize
//     turns the reservation into the real event at the reserved (at,
//     seq), which fires exactly where At would have fired it. A
//     reservation holds no slot and no heap entry; the kernel keeps only
//     its instant while it lies ahead of the clock, so that Run and
//     RunUntil leave the clock where the real events would have: at the
//     latest event or reservation at or before the deadline. Fired counts
//     real events only. The PCIe link reserves its DLLP work this way on
//     an untapped link (internal/pcie).
//   - An early event is the event a reservation's real event would
//     schedule, queued at once instead (AtFor), so that the reservation
//     need never become real. Queued now, it takes an earlier seq than the
//     real event would give it, and would fire ahead of any event taken
//     for its instant between now and the reservation. So the kernel
//     guards that instant until the reservation is due: an At, AtArg or
//     Reserve for it from an event ordered before the reservation is a
//     tie, on which the kernel cancels the early event and materializes
//     the reservation with a fallback that schedules the event as the
//     real one would (AtFor has the rule for two early events at one
//     instant). Every event then fires exactly where it would have. A
//     guard lives only while its reservation lies ahead, so only a
//     schedule at least the early event's lead over its reservation ahead
//     of the clock can hit one: a shorter schedule skips the lookup, and
//     with no guard the check is one compare. The guards live in an array
//     the kernel reuses. The switch ports queue each frame's arrival this
//     way (internal/topo).
//   - A parked task is woken late, by a change that comes after the
//     instant its spin would have queued the resume at. Mark takes a place
//     in the order (a seq, as a scheduling call would), Scheduled reports
//     the place of the call that queued the running event (its seq, and
//     the clock less its lead), and AtArgAsOf queues an event late into a
//     mark's place: the mark's own seq, or, for an instant alone
//     (MarkAt), the odd seq just below the first event at its instant
//     queued at or after that instant, found by a walk of the heap
//     entries no later than it. Calls take even seqs two apart to leave
//     that room (seqStep). uct's parked wait loops resume this way where
//     their spin would have.
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
	"math"
	"slices"
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

// heapEnt is a value-typed entry of the 4-ary min-heap. lead is how far
// ahead of the clock the event was queued, saturated at maxLead; it fills
// what would be padding.
type heapEnt struct {
	at   Time
	seq  uint64
	id   int32
	lead uint32
}

// maxLead is the longest lead a heap entry records: a call made earlier
// reads as made maxLead ps (4.29 ms) before its event.
const maxLead = math.MaxUint32

// leadOf is the lead of an event at at queued at clock from.
func leadOf(at, from Time) uint32 {
	if d := at - from; d < maxLead {
		return uint32(d)
	}
	return maxLead
}

// less orders entries by (at, seq): time first, scheduling order at ties.
func (e heapEnt) less(o heapEnt) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// seqStep is the seq distance between scheduling calls: every call takes
// an even seq, leaving the odd one below it for an event queued late just
// ahead of that call (AtArgAsOf at a MarkAt mark).
const seqStep = 2

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
	if dead := len(r.k.heap) - r.k.live; dead > r.k.live {
		r.k.purge()
	}
}

// purge drops every cancelled entry from the heap, recycling its slot as a
// surfacing entry would, and rebuilds the heap in place from the live
// entries: each push writes only positions already read.
func (k *Kernel) purge() {
	old := k.heap
	k.heap = old[:0]
	for _, e := range old {
		if s := &k.slots[e.id]; !s.live {
			s.gen++
			k.free = append(k.free, e.id)
			continue
		}
		k.push(e)
	}
}

// Reservation is an event's place in the kernel's order, (at, seq),
// taken by Reserve without the event.
type Reservation struct {
	at  Time
	seq uint64
}

// At reports the reserved instant.
func (r Reservation) At() Time { return r.at }

// before reports whether r is ordered before o.
func (r Reservation) before(o Reservation) bool {
	return r.at < o.at || (r.at == o.at && r.seq < o.seq)
}

// guard is an early event's claim on its instant. AtFor queued the event
// before its reservation's real event would have, so until the
// reservation is due an event taken at the same instant would fire after
// it instead of before: such a tie demotes it (see AtFor).
type guard struct {
	at       Time
	r        Reservation
	id       int32
	gen      uint32
	fallback func(any)
}

// Kernel is a discrete-event simulator instance.
type Kernel struct {
	now  Time
	seq  uint64
	heap []heapEnt
	// cur is the seq of the running event, which Due compares a
	// reservation at now against, and curLead its heap entry's lead. Once
	// RunUntil has returned past its deadline they are the next seq to be
	// assigned and 0: every event and reservation at or before now is
	// then past.
	cur     uint64
	curLead uint32
	// lead is the least lead of an early event over its reservation among
	// the guards (MaxTime with none; see guards).
	lead Time
	// ahead holds the instants of reservations that may lie ahead of the
	// clock, for RunUntil to catch the clock up to; entries at or before
	// the clock are dropped when the slice fills.
	ahead []Time

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

	// guards are the early events AtFor queued, until a sweep finds them
	// fired, demoted or their reservations due. An event can land on a
	// guarded instant only while the guard's reservation lies ahead, so a
	// schedule less than lead ahead of the clock skips the sweep. until is
	// the latest of their reservations' instants: once the clock passes
	// it, every guard is past. They sit after the fields the event loop
	// reads, which keep their cache lines.
	guards []guard
	until  Time
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{lead: units.MaxTime}
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

// Reserve takes the place in the event order that At(at, ...) would take
// now, the same seq, and queues nothing: every event scheduled after it
// gets the seq it would have got had the reserved event been real. The
// caller settles the state change it stands for when Due first reports
// it, or makes it real with Materialize. Reserving in the past panics, as
// scheduling there does.
func (k *Kernel) Reserve(at Time) Reservation {
	if at < k.now {
		panic(fmt.Sprintf("sim: reserving in the past (now=%v at=%v)", k.now, at))
	}
	if at-k.now >= k.lead {
		k.sweep(at, beforeAll)
	}
	r := Reservation{at: at, seq: k.seq}
	k.seq += seqStep
	if at > k.now {
		if len(k.ahead) == cap(k.ahead) {
			k.dropPast()
		}
		k.ahead = append(k.ahead, at)
	}
	return r
}

// dropPast drops the reserved instants that no longer lie ahead of the
// clock.
func (k *Kernel) dropPast() {
	n := 0
	for _, at := range k.ahead {
		if at > k.now {
			k.ahead[n] = at
			n++
		}
	}
	k.ahead = k.ahead[:n]
	if n > cap(k.ahead)/2 {
		// Keep the next drop at least half the array away, so each
		// instant is scanned O(1) times on average.
		k.ahead = slices.Grow(k.ahead, cap(k.ahead))
	}
}

// Due reports whether r is ordered before the running event, so the state
// change it stands for has happened by now and a reader must settle it
// first. Between runs a reservation is due once the clock has reached it.
func (k *Kernel) Due(r Reservation) bool {
	return r.at < k.now || (r.at == k.now && r.seq < k.cur)
}

// Mark is a place in the order in which events are queued: the clock and
// the seq of a scheduling call. Marks compare by seq, so one mark comes
// before another exactly when its call came first.
type Mark struct {
	at  Time
	seq uint64
}

// At reports the clock at the marked call.
func (m Mark) At() Time { return m.at }

// Before reports whether m's call came before o's.
func (m Mark) Before(o Mark) bool { return m.seq < o.seq }

// Mark takes the next place in the scheduling order, as a scheduling call
// would, and returns it: every event queued from now on comes after it. An
// event queued late into the place (AtArgAsOf) takes its seq.
func (k *Kernel) Mark() Mark {
	m := Mark{at: k.now, seq: k.seq}
	k.seq += seqStep
	return m
}

// anySeq is the seq of a Mark that names an instant only (MarkAt).
const anySeq = math.MaxUint64

// MarkAt returns a mark for instant x alone, for AtArgAsOf: it stands
// before every call made at x or later and after every earlier one. Before
// does not compare it.
func MarkAt(x Time) Mark { return Mark{at: x, seq: anySeq} }

// AtArgAsOf is AtArg for an event queued late: fn(arg) fires at at in the
// place m's call would have given it, after the events there that were
// queued before m and ahead of those queued after it. A Mark from
// Kernel.Mark places it exactly, in the place the mark took; one from
// MarkAt(x) goes ahead of the events at at queued at x or later, which it
// finds among the queued events no later than at, and two such events in
// one place fire in the order the heap leaves them. A task woken from a
// park resumes this way (Task.WakeAt) where its spin would have. See AtArg
// for arg.
func (k *Kernel) AtArgAsOf(at Time, m Mark, fn func(any), arg any) EventRef {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (now=%v at=%v)", k.now, at))
	}
	// place is m as a reservation key, for the guards AtFor left.
	seq, place := m.seq, Reservation{at: m.at, seq: m.seq}
	if m.seq == anySeq {
		seq, place.seq = k.seq-1, 0
		if len(k.heap) > 0 && k.heap[0].at <= at {
			seq = k.firstSince(0, at, m.at, k.since(k.heap[0], at, m.at, k.seq)) - 1
		}
	}
	if at-k.now >= k.lead {
		k.sweep(at, place)
	}
	id, s := k.takeSlot()
	s.afn = fn
	s.arg = arg
	k.push(heapEnt{at: at, seq: seq, id: id, lead: leadOf(at, m.at)})
	return EventRef{k: k, id: id, gen: s.gen}
}

// firstSince returns the least of first and the seqs of the live events at
// at whose scheduling call came at instant x or later, among heap entry
// i's descendants. It visits only the entries no later than at.
func (k *Kernel) firstSince(i int, at, x Time, first uint64) uint64 {
	h := k.heap
	for c := i<<2 + 1; c <= i<<2+4 && c < len(h); c++ {
		if e := h[c]; e.at <= at {
			first = k.since(e, at, x, first)
			first = k.firstSince(c, at, x, first)
		}
	}
	return first
}

// since folds heap entry e into firstSince's least seq.
func (k *Kernel) since(e heapEnt, at, x Time, first uint64) uint64 {
	if e.at == at && Time(e.lead) <= at-x && e.seq < first && k.slots[e.id].live {
		return e.seq
	}
	return first
}

// Scheduled returns the place of the call that queued the running event: a
// task parked until some change can ask whether the change was queued
// before or after an event its spin would have queued. For an event
// materialized from a reservation the seq is the reservation's and the
// clock the Materialize call's; for one queued late, its place's. A call
// made more than maxLead before its event reads as made maxLead before.
// Between runs it is the next place, after every event at or before the
// clock.
func (k *Kernel) Scheduled() Mark { return Mark{at: k.now - Time(k.curLead), seq: k.cur} }

// Materialize makes r a real event: fn(arg) fires at r's instant and in
// r's place in the order, exactly where AtArg at reservation time would
// have fired it. A due reservation panics, like scheduling in the past.
// See AtArg for arg.
func (k *Kernel) Materialize(r Reservation, fn func(any), arg any) EventRef {
	if k.Due(r) {
		panic(fmt.Sprintf("sim: materializing a reservation already past (now=%v at=%v)", k.now, r.at))
	}
	id, s := k.takeSlot()
	s.afn = fn
	s.arg = arg
	k.push(heapEnt{at: r.at, seq: r.seq, id: id, lead: leadOf(r.at, k.now)})
	return EventRef{k: k, id: id, gen: s.gen}
}

// AtFor schedules fn(arg) at absolute time at now, on behalf of r: the
// event r stands for would schedule it when it fires. Queued now, the
// event takes an earlier seq than that event would give it, so the kernel
// guards its instant until r is due. An At, AtArg or Reserve for that
// instant made before then is a tie: the event would have been queued
// after it, so the kernel cancels the early event and runs
// Materialize(r, fallback, arg) instead, and fallback, at r's place,
// schedules fn(arg) as r's real event would have. A later AtFor for that
// instant demotes it the same way only when its own reservation comes
// before r, since its event would then have been queued first. Every
// event therefore fires where it would had r been real. at must lie at or
// after both r and the clock; the caller settles r, or demotes the event
// (Demote) before it reads what r changes ahead of it. See AtArg for arg.
func (k *Kernel) AtFor(r Reservation, at Time, fn func(any), arg any, fallback func(any)) EventRef {
	if at < r.at || at < k.now {
		panic(fmt.Sprintf("sim: an early event before its reservation or the clock (now=%v reserved at=%v at=%v)", k.now, r.at, at))
	}
	// A full array is swept before it grows, so past guards never pile
	// up in it.
	if at-k.now >= k.lead || len(k.guards) == cap(k.guards) {
		k.sweep(at, r)
	}
	id, s := k.takeSlot()
	k.push(heapEnt{at: at, seq: k.seq, id: id, lead: leadOf(at, k.now)})
	k.seq += seqStep
	s.afn = fn
	s.arg = arg
	// Fill the new guard in place: a guard composed on the stack and
	// copied in costs a store-forwarding stall on this hot path.
	k.guards = append(k.guards, guard{})
	g := &k.guards[len(k.guards)-1]
	g.at, g.r, g.id, g.gen, g.fallback = at, r, id, s.gen, fallback
	k.lead = min(k.lead, at-r.at)
	k.until = max(k.until, r.at)
	return EventRef{k: k, id: id, gen: s.gen}
}

// Demote turns an early event that AtFor queued back into its
// reservation's real event, as a tie does, for a caller about to read,
// ahead of the reservation, state that only its real event may change.
// An event that fired, was demoted already, or whose reservation is due
// is left alone.
func (k *Kernel) Demote(ev EventRef) {
	for i, g := range k.guards {
		if g.id != ev.id || g.gen != ev.gen {
			continue
		}
		last := len(k.guards) - 1
		k.guards[i] = k.guards[last]
		k.guards = k.guards[:last]
		if k.early(g) {
			k.demote(g)
		}
		return
	}
}

// beforeAll is ordered before every reservation: the place of a plain
// schedule, which ties with every early event at its instant.
var beforeAll = Reservation{at: -1}

// sweep drops the guards whose events fired or were demoted or whose
// reservations are due, and demotes the early events at at that an event
// taken there now on behalf of r would have been queued before: those
// whose reservations come after r. It recomputes lead.
func (k *Kernel) sweep(at Time, r Reservation) {
	if k.now > k.until {
		k.guards = k.guards[:0]
		k.lead = units.MaxTime
		return
	}
	n := 0
	lead := units.MaxTime
	for _, g := range k.guards {
		if !k.early(g) {
			continue
		}
		if g.at == at && r.before(g.r) {
			k.demote(g)
			continue
		}
		k.guards[n] = g
		n++
		lead = min(lead, g.at-g.r.at)
	}
	k.guards = k.guards[:n]
	k.lead = lead
}

// early reports whether g's event is still queued ahead of its
// reservation's real event.
func (k *Kernel) early(g guard) bool {
	if k.Due(g.r) {
		return false
	}
	s := &k.slots[g.id]
	return s.gen == g.gen && s.live
}

// demote replaces g's early event with its reservation's real event,
// which runs the fallback on the early event's arg.
func (k *Kernel) demote(g guard) {
	arg := k.slots[g.id].arg
	k.Materialize(g.r, g.fallback, arg)
	EventRef{k: k, id: g.id, gen: g.gen}.Cancel()
}

// allocSlot takes a pooled slot, marks it live and queues it at time at,
// demoting the early events that a schedule there ties with.
func (k *Kernel) allocSlot(at Time) (int32, *slot) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (now=%v at=%v)", k.now, at))
	}
	if at-k.now >= k.lead {
		k.sweep(at, beforeAll)
	}
	id, s := k.takeSlot()
	k.push(heapEnt{at: at, seq: k.seq, id: id, lead: leadOf(at, k.now)})
	k.seq += seqStep
	return id, s
}

// takeSlot takes a pooled slot and marks it live.
func (k *Kernel) takeSlot() (int32, *slot) {
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
// the last executed event's time, or at the latest reservation at or before
// the deadline when that is later: where it would stand had every
// reservation been a real event. A Stop leaves it at the stopping event.
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
		k.cur, k.curLead = e.seq, e.lead
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
	if !k.stopped {
		k.catchUp(deadline)
	}
	return fired
}

// catchUp moves the clock past the reservations at or before deadline, to
// the latest of them when it is later than the last fired event, and
// counts every event and reservation at or before the clock as past.
func (k *Kernel) catchUp(deadline Time) {
	n := 0
	for _, at := range k.ahead {
		if at > deadline {
			k.ahead[n] = at
			n++
		} else if at > k.now {
			k.now = at
		}
	}
	k.ahead = k.ahead[:n]
	k.cur, k.curLead = k.seq, 0
}

// Pending reports the number of live events still queued.
func (k *Kernel) Pending() int { return k.live }

// StuckTasks reports the tasks that are still live — neither finished nor
// cancelled — at the moment of the call. A paused task holds a scheduled
// resume event, but a parked task holds none: it waits for a waker it
// armed (a memory write watch) to fire. So live tasks survive a drained
// Run when they are parked on something that never happens (a completion
// that can never arrive) or something cancelled their wake-up, and they
// survive a RunUntil/Stop/event-limit exit whenever they are deadlocked or
// livelocked (e.g. spin-polling a completion that can never arrive).
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
