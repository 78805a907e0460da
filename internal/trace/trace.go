// Package trace is the simulator's flight recorder: a kernel-integrated,
// pooled ring buffer of fixed-size events that every hot layer emits into
// when tracing is enabled, and that costs exactly one nil pointer test per
// call site when it is not.
//
// The paper's contribution is a breakdown — attributing every nanosecond of
// the communication critical path to a specific layer — and this package is
// the simulator-side instrument for the same question: where does a message
// actually lose its time? Two event families are recorded on one timeline:
//
//   - Frame lifecycle spans: a data frame's trace id (Tracer.NextTID,
//     stamped on fabric.Frame.TID by the sending NIC) threads Inject →
//     per-hop Queue/Stall/TxStart → Deliver → Release (or Refuse/Drop), so
//     a consumer can reconstruct exactly where each flight waited.
//   - Policy decisions: ECMP route chosen, credit stall begin, RNR NAK
//     issued and received, go-back-N replay, ACK-timeout backoff, PCIe pend
//     park/issue, crash and flush. These are the moments the simulator
//     *chose* to delay or discard something, recorded with enough keying
//     (node, QP, PSN, port) to join them back to the affected messages.
//
// Consumers: Attribute (attrib.go) folds a ring into per-message stall
// attribution with a conservation check; WriteChrome (chrome.go) exports
// the timeline as Chrome trace-event JSON for chrome://tracing / Perfetto;
// perftest.SaturationSweep samples per-load-step stall shares from it.
//
// # Enablement and allocation rules
//
// A Tracer is optional everywhere: components capture a *Tracer (possibly
// nil) at construction from sim.Kernel.Tracer, and every emit site is
// guarded by a single pointer test — with tracing disabled the simulation
// executes the identical event sequence (golden fixtures stay byte-
// identical) and the hot paths stay at their zero-allocation budgets. With
// tracing enabled, Emit writes one value-typed Event into a preallocated
// ring (overwriting the oldest when full) and allocates nothing; the only
// enabled-mode allocations are port-name interning (once per port) and
// whatever a consumer builds at analysis time. internal/simbench pins both
// budgets in CI.
package trace

import (
	"fmt"

	"breakband/internal/units"
)

// Kind classifies one recorded event.
type Kind uint8

// Event kinds. The frame-lifecycle kinds carry the frame's trace id (TID);
// the QP-level decision kinds carry node and ArgQP packing instead.
const (
	// EvInject: a NIC handed a data frame to the fabric. Node = source,
	// Arg = ArgMsg(qpn, bytes, psn). First event of every flight.
	EvInject Kind = iota
	// EvQueue: the frame entered an output-port FIFO. Port set.
	EvQueue
	// EvStall: the frame reached the head of its port's queue but the link
	// is out of downstream credits; the port is stalled until a credit
	// returns. Port set.
	EvStall
	// EvTxStart: the port popped the frame and began serializing it onto
	// the wire. Port set, Arg = ArgMsg(0, bytes, psn).
	EvTxStart
	// EvDeliver: the frame arrived at its destination host port. Node =
	// destination.
	EvDeliver
	// EvRelease: the receiver released the frame — for an accepted data
	// frame, the moment its last host-memory write was issued on the
	// receiver's PCIe link (and the final-hop fabric credit returned).
	// Node = destination.
	EvRelease
	// EvRefuse: the receiver RNR-NAKed the frame (no receive posted or rx
	// budget exhausted). Node = destination, Arg = ArgMsg(qpn, 0, psn).
	EvRefuse
	// EvDrop: the fault layer dropped or a store-and-forward check
	// discarded the frame. Port set when known.
	EvDrop
	// EvRoute: ECMP up-path decision — a cross-leaf frame was hashed onto
	// a spine uplink. Port = chosen uplink, Arg = ArgMsg(0, 0, dst).
	EvRoute
	// EvNakRx: the initiator received an RNR NAK and armed its backoff
	// timer. Node = initiator, Arg = ArgQP(qpn, backoff picoseconds).
	EvNakRx
	// EvSeqNakRx: the initiator received a sequence-error NAK and will
	// replay immediately. Node = initiator, Arg = ArgQP(qpn, psn).
	EvSeqNakRx
	// EvAckTimeout: the initiator's ACK timer expired. Node = initiator,
	// Arg = ArgQP(qpn, picoseconds of the timeout that just expired).
	EvAckTimeout
	// EvRetx: go-back-N replay began (backoff, if any, is over). Node =
	// initiator, Arg = ArgQP(qpn, number of records replayed).
	EvRetx
	// EvCQE: a completion (success or error) was written to host memory.
	// Node set, Arg = ArgQP(qpn, the CQE's WQE counter).
	EvCQE
	// EvPend: a PCIe TLP parked in the pend queue (credit-blocked, ordering
	// or paused). Node set, Arg = the pend queue's depth after the park.
	EvPend
	// EvIssue: a previously parked PCIe TLP finally transmitted. Node set,
	// Arg = the pend queue's depth after the issue.
	EvIssue
	// EvCrash: the node's NIC failed (endpoint fault). Node set.
	EvCrash
	// EvFlush: a QP was moved to the error state and its outstanding work
	// flushed with error CQEs. Node set, Arg = ArgQP(qpn, flushed count).
	EvFlush
	// EvComp: an LLP-level (uct) operation completed. Node set,
	// Arg = ArgQP(qpn, n): n is the number of sends one CQE retired, or 1
	// for a receive.
	EvComp

	numKinds
)

var kindNames = [numKinds]string{
	"inject", "queue", "stall", "txstart", "deliver", "release", "refuse",
	"drop", "route", "nakrx", "seqnakrx", "acktimeout", "retx", "cqe",
	"pend", "issue", "crash", "flush", "comp",
}

// String names the kind, e.g. "inject".
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fixed-size trace record. Which fields are meaningful depends
// on Kind (see the kind constants); unused fields are zero (Port/Node: -1).
type Event struct {
	At   units.Time // kernel timestamp
	Arg  uint64     // kind-specific payload, see ArgMsg/ArgQP
	TID  uint32     // frame flight id (0 = not tied to a frame)
	Port int32      // interned port id (-1 = none), see Tracer.PortName
	Node int16      // node id (-1 = none)
	Kind Kind
}

// ArgMsg packs the frame-describing argument word used by EvInject,
// EvTxStart and EvRefuse: a 16-bit QP number, a 24-bit byte count and a
// 24-bit PSN.
func ArgMsg(qpn uint32, bytes int, psn uint32) uint64 {
	return uint64(qpn&0xffff)<<48 | uint64(bytes&0xffffff)<<24 | uint64(psn&0xffffff)
}

// MsgQPN unpacks the QP number of an ArgMsg word.
func MsgQPN(arg uint64) uint32 { return uint32(arg >> 48) }

// MsgBytes unpacks the byte count of an ArgMsg word.
func MsgBytes(arg uint64) int { return int(arg >> 24 & 0xffffff) }

// MsgPSN unpacks the PSN of an ArgMsg word.
func MsgPSN(arg uint64) uint32 { return uint32(arg & 0xffffff) }

// ArgQP packs the QP-decision argument word used by the EvNakRx/EvRetx
// family: a 16-bit QP number and a 48-bit kind-specific value (a backoff in
// picoseconds, a PSN, a count).
func ArgQP(qpn uint32, v uint64) uint64 {
	return uint64(qpn&0xffff)<<48 | v&0xffffffffffff
}

// QPQPN unpacks the QP number of an ArgQP word.
func QPQPN(arg uint64) uint32 { return uint32(arg >> 48) }

// QPVal unpacks the value of an ArgQP word.
func QPVal(arg uint64) uint64 { return arg & 0xffffffffffff }

// Tracer records events into a preallocated ring buffer. One Tracer serves
// a whole system (all nodes share the kernel's timeline); it is installed
// on the kernel before components are built (sim.Kernel.SetTracer) and
// captured by each layer at construction. A nil *Tracer means tracing is
// disabled; every call site guards with a single pointer test.
//
// Tracer is not safe for concurrent use — exactly like the simulation state
// it observes, it relies on the kernel's single-threaded event execution.
type Tracer struct {
	buf []Event
	n   uint64 // total events ever emitted; buf[(n-1) % len(buf)] is newest

	tid uint32 // last issued frame trace id

	ports   []string
	portIDs map[string]int32
}

// New returns a tracer whose ring keeps the most recent capacity events.
func New(capacity int) *Tracer {
	if capacity < 1 {
		panic("trace: ring capacity must be positive")
	}
	return &Tracer{
		buf:     make([]Event, capacity),
		portIDs: make(map[string]int32),
	}
}

// Emit appends one event, overwriting the oldest when the ring is full.
// The receiver must be non-nil: emit sites guard with `if tr != nil`.
func (t *Tracer) Emit(e Event) {
	t.buf[t.n%uint64(len(t.buf))] = e
	t.n++
}

// NextTID issues a fresh frame trace id (never 0, so the zero value on a
// pooled frame means "untraced").
func (t *Tracer) NextTID() uint32 {
	t.tid++
	if t.tid == 0 {
		t.tid = 1
	}
	return t.tid
}

// Port interns a port name, returning its stable id. Components intern
// their ports once at construction; Emit sites then pass the id.
func (t *Tracer) Port(name string) int32 {
	if id, ok := t.portIDs[name]; ok {
		return id
	}
	id := int32(len(t.ports))
	t.ports = append(t.ports, name)
	t.portIDs[name] = id
	return id
}

// PortName resolves an interned port id ("" for -1 or unknown ids).
func (t *Tracer) PortName(id int32) string {
	if id < 0 || int(id) >= len(t.ports) {
		return ""
	}
	return t.ports[id]
}

// Len reports how many events the ring currently holds.
func (t *Tracer) Len() int {
	if t.n < uint64(len(t.buf)) {
		return int(t.n)
	}
	return len(t.buf)
}

// Emitted reports how many events were ever emitted; Emitted()-Len() of
// them have been overwritten.
func (t *Tracer) Emitted() uint64 { return t.n }

// Overwritten reports how many events the ring has already discarded. A
// consumer that needs a complete window must size New's capacity so this
// stays zero across the window.
func (t *Tracer) Overwritten() uint64 {
	if t.n < uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// Events returns the retained events, oldest first. The slice is freshly
// allocated; mutating it does not affect the ring.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, t.Len())
	cap64 := uint64(len(t.buf))
	start := uint64(0)
	if t.n > cap64 {
		start = t.n - cap64
	}
	for i := start; i < t.n; i++ {
		out = append(out, t.buf[i%cap64])
	}
	return out
}

// Reset discards all retained events (port interning and the tid counter
// survive, so in-flight frames keep valid ids). Scenario drivers call it
// at the start of a measured window.
func (t *Tracer) Reset() { t.n = 0 }
