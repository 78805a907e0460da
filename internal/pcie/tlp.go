// Package pcie models the PCI Express subsystem on the critical path of
// communication: the Root Complex (RC), the point-to-point link to the NIC
// endpoint, Transaction Layer Packets (MWr, MRd, CplD), Data Link Layer
// Packets (ACK/NACK, UpdateFC) and the credit-based flow control that governs
// how many transactions can be outstanding (paper §2).
//
// The link serializes packets (bandwidth contention is modelled, which the
// multi-core ablation exercises) and preserves per-direction ordering, as
// PCIe does. A passive tap interface lets internal/analyzer observe traffic
// "just before the NIC", matching the paper's Lecroy analyzer placement. A
// link carries at most one tap (Link.SetTap).
//
// # What a link schedules
//
// Each TLP gets its arrival event, and AckDelay after its delivery one
// event on the reverse channel sends its ACK and, for a flow-controlled
// TLP, right behind it the UpdateFC returning its credits. A tapped link
// also schedules the departure of each upstream packet past the tap and
// the arrival of every DLLP, since the analyzer observes each one.
//
// An untapped link schedules no event whose only job is to feed a tap,
// and reserves (sim.Kernel.Reserve) the DLLP work that nothing reads yet
// instead of scheduling it:
//
//   - An ACK's arrival changes no state, so it gets nothing.
//   - An UpdateFC's arrival is reserved while the channel it credits has
//     nothing pended and is not paused. Its credits settle before that
//     channel next reads them, in send. When a TLP parks on the channel,
//     every reserved arrival there becomes a real event
//     (sim.Kernel.Materialize), since retryPending must run at each.
//   - The ACK of a credit-free TLP (a CplD) is reserved at delivery on the
//     reverse serializer, and takes its slot there before that channel's
//     next transmit or DLLP send.
//
// Every simulated instant, credit count and serializer schedule is the
// same either way, and a run ends at the same instant: the kernel's clock
// catches up with the reservations (FuzzUntappedLink checks all of it
// against a tapped link). Only Kernel.Fired differs.
//
// # One calibrated link
//
// The link is the paper's one Gen3 x16 port and its Root Complex (§3), so
// their parameters are constants: 64 ps/B serialization (SerTime), a
// 24-byte TLP header, 8-byte DLLPs, and a 2 ns turnaround (AckDelay) after
// which the receiver sends a TLP's ACK and, for a flow-controlled TLP,
// right behind it the UpdateFC returning its credits. The credit pools
// hold 32 posted headers, 256 posted data credits (4 KiB) and 16
// non-posted headers per direction. The RC's commit grows by 50 ps/B past
// one cache line (RCToMem), and a DMA read takes 150 ns. The two
// latencies the paper's §7 what-if varies are what a system passes in:
// the link's one-way propagation (NewLink) and the RC's commit latency for
// up to one cache line (NewRootComplex).
//
// # Pooled packets and the borrow contract
//
// TLPs and DLLPs on the hot path are pooled: each Link owns a
// generation-checked arena of value-typed slots, and the steady-state
// simulated-message path recycles descriptors instead of allocating them.
// The ownership rules are:
//
//   - The sender allocates a TLP with Link.NewTLP, fills it, and hands it
//     to SendDown/SendUp. From that point the link owns the packet. The
//     data goes in one of two ways. A message payload is shared, not
//     copied: TLP.AttachData makes the TLP hold a reference to the pooled
//     payload buffer (arena.Buf) the NIC filled once, which the TLP drops
//     when it is released. The NIC's own 64-byte images (descriptors,
//     doorbells, CQEs) and DMA-read completions are copied into the slot's
//     reusable buffer (TLP.SetData / TLP.GrowData). Nothing writes
//     through a shared buffer, and a released TLP never keeps one as its
//     own reusable buffer.
//   - At delivery the link transfers ownership to the Receiver: RxTLP must
//     eventually call TLP.Release — synchronously, or from a later event if
//     the receiver needs the packet beyond delivery (the Root Complex holds
//     an inbound MWr until its RC-to-MEM commit fires).
//   - Taps are passive borrowers: they observe a packet in flight and must
//     copy anything they keep (internal/analyzer copies scalar fields into
//     its own Record). Retaining the *TLP or its Data slice past the
//     observation call is a use-after-release bug waiting to happen.
//   - DLLPs never leave the link layer; the link allocates and releases
//     them itself. Taps borrow them under the same copy-what-you-keep rule.
//
// TLPs constructed directly (&TLP{...}, as tests do) are not pooled;
// Release on them is a no-op and the contract above is vacuous. A stale
// handle can be detected with TLP.Ref / TLPRef.Get, which checks the slot
// generation recorded at allocation time.
//
// # Pend-queue bounding
//
// A TLP that lacks flow-control credits parks in the sending channel's
// pend queue. Link.SendUp reports whether the TLP issued immediately, and
// the Link.SetOnUpIssued hook observes each parked upstream TLP at the
// moment it finally transmits (strict FIFO order), so the endpoint can
// defer its own resource hand-back — the NIC holds a received fabric frame
// until its host-memory writes have issued, see internal/nic — instead of
// letting the pend queue absorb unbounded overload. With the NIC's rx
// budget enabled, the deepest upstream pend queue (Link.MaxPend) is
// bounded by that budget rather than growing with offered load.
//
// ARCHITECTURE.md (repo root) places this package in the full layer map
// and summarizes how the PCIe credit loop composes with the fabric's.
package pcie

import (
	"fmt"

	"breakband/internal/arena"
	"breakband/internal/units"
)

// TLPType enumerates the Transaction Layer Packet types relevant to the
// paper: posted memory writes, non-posted memory reads, and completions with
// data.
type TLPType uint8

// TLP types.
const (
	MWr  TLPType = iota // Memory Write (posted)
	MRd                 // Memory Read (non-posted)
	CplD                // Completion with Data
)

// String implements fmt.Stringer.
func (t TLPType) String() string {
	switch t {
	case MWr:
		return "MWr"
	case MRd:
		return "MRd"
	case CplD:
		return "CplD"
	default:
		return fmt.Sprintf("TLP(%d)", uint8(t))
	}
}

// TLP is a transaction layer packet in flight on a link.
type TLP struct {
	// Seq is the link-level sequence number, assigned by the sending side
	// and echoed in the ACK DLLP; the analyzer methodology matches a TLP
	// to its ACK through it.
	Seq uint64
	// Type is the transaction type.
	Type TLPType
	// Addr is the target address (bus address for MWr/MRd).
	Addr uint64
	// Data is the payload for MWr and CplD: read it, never write through
	// it. On pooled TLPs it is either the slot's reusable buffer, filled
	// through SetData/GrowData (which copy), or a shared payload buffer
	// attached with AttachData. Never assign a foreign slice, or the arena
	// would recycle memory it does not own.
	Data []byte
	// ReadLen is the requested byte count for MRd.
	ReadLen int
	// Tag matches an MRd to its CplD.
	Tag uint8

	// own is the slot's reusable buffer, kept across recycles; shared is
	// the attached payload buffer's reference, dropped at release.
	own    []byte
	shared arena.Buf

	// Slot is the pool bookkeeping (zero for TLPs constructed directly);
	// it provides Release.
	arena.Slot
}

// SetData copies b into the TLP's reusable payload buffer. The wire carries
// a copy, so the caller may reuse b immediately.
func (t *TLP) SetData(b []byte) {
	t.own = append(t.own[:0], b...)
	t.Data = t.own
}

// GrowData resizes the payload buffer to n bytes (previous contents
// undefined) and returns it, for read-into fills such as DMA-read
// completions. The underlying buffer is reused across pool recycles, so
// steady-state growth is free.
func (t *TLP) GrowData(n int) []byte {
	t.own = arena.Grow(t.own, n)
	t.Data = t.own
	return t.Data
}

// AttachData makes the TLP carry the shared payload buffer b as its Data
// without copying it: the TLP takes its own reference, which its release
// drops. Attach at most once per TLP.
func (t *TLP) AttachData(b arena.Buf) {
	t.shared = b.Hold()
	t.Data = t.shared.Bytes()
}

// TLPRef is a generation-checked handle to a pooled TLP, for holders that
// want stale-handle detection rather than a borrowed pointer. The zero
// TLPRef (and the Ref of an unpooled TLP) resolves to nil.
type TLPRef = arena.Ref[TLP]

// Ref returns a generation-checked handle to t.
func (t *TLP) Ref() TLPRef { return arena.MakeRef(t, &t.Slot) }

// newTLPArena builds the shared pool of value-typed TLP slots, mirroring
// the kernel's event-slot pool (see internal/arena). A released TLP drops
// its shared payload reference, so only its own buffer survives recycling.
func newTLPArena() *arena.Arena[TLP] {
	a := arena.New(
		func(t *TLP) *arena.Slot { return &t.Slot },
		func(t *TLP) {
			t.Seq = 0
			t.Type = 0
			t.Addr = 0
			t.ReadLen = 0
			t.Tag = 0
			t.own = t.own[:0]
			t.Data = t.own
		})
	a.SetOnRelease(func(t *TLP) {
		t.shared.Drop()
		t.shared = arena.Buf{}
		t.Data = nil
	})
	return a
}

// newDLLPArena builds the DLLP pool; DLLPs are allocated and released by
// the link itself and never escape the link layer.
func newDLLPArena() *arena.Arena[DLLP] {
	return arena.New(
		func(d *DLLP) *arena.Slot { return &d.Slot },
		func(d *DLLP) {
			d.Type = 0
			d.AckSeq = 0
			d.Kind = 0
			d.Credit = Credits{}
		})
}

// PayloadBytes reports the number of payload bytes carried.
func (t *TLP) PayloadBytes() int {
	switch t.Type {
	case MWr, CplD:
		return len(t.Data)
	default:
		return 0
	}
}

// WireBytes reports the on-wire size: header and framing plus payload.
func (t *TLP) WireBytes() int { return TLPHeader + t.PayloadBytes() }

// DLLPType enumerates Data Link Layer Packet types.
type DLLPType uint8

// DLLP types.
const (
	Ack DLLPType = iota
	Nack
	UpdateFC
)

// String implements fmt.Stringer.
func (t DLLPType) String() string {
	switch t {
	case Ack:
		return "Ack"
	case Nack:
		return "Nack"
	case UpdateFC:
		return "UpdateFC"
	default:
		return fmt.Sprintf("DLLP(%d)", uint8(t))
	}
}

// CreditKind selects a flow-control credit pool.
type CreditKind uint8

// Credit pools. Completions are not flow controlled towards the RC (infinite
// advertisement), which matches common root-port behaviour.
const (
	Posted CreditKind = iota
	NonPosted
)

// Credits is a (header, data) credit amount. Data credits are in 16-byte
// units per the PCIe specification.
type Credits struct {
	Hdr  int
	Data int
}

// plus adds o to c.
func (c Credits) plus(o Credits) Credits {
	return Credits{Hdr: c.Hdr + o.Hdr, Data: c.Data + o.Data}
}

// creditsFor computes the credits a TLP consumes.
func creditsFor(t *TLP) (CreditKind, Credits) {
	switch t.Type {
	case MWr:
		return Posted, Credits{Hdr: 1, Data: (len(t.Data) + 15) / 16}
	case MRd:
		return NonPosted, Credits{Hdr: 1}
	default:
		return NonPosted, Credits{} // CplD: not flow controlled here
	}
}

// DLLP is a data link layer packet.
type DLLP struct {
	Type DLLPType
	// AckSeq is the sequence being acknowledged (Ack/Nack).
	AckSeq uint64
	// Kind and Credit describe an UpdateFC return.
	Kind   CreditKind
	Credit Credits

	// Slot is the pool bookkeeping (zero for DLLPs constructed directly).
	arena.Slot
}

// Dir is a link direction.
type Dir uint8

// Link directions. Down is RC towards the endpoint (NIC); Up is endpoint
// towards the RC. This matches the paper's "downstream/upstream" trace
// filtering.
const (
	Down Dir = iota
	Up
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	if d == Down {
		return "down"
	}
	return "up"
}

// Tap observes packets passing a fixed point on the link (just before the
// endpoint). Implementations must be passive: they may record but not
// mutate — and because packets are pooled, they must copy anything they
// keep rather than retain the packet or its Data slice.
type Tap interface {
	ObserveTLP(at units.Time, dir Dir, t *TLP)
	ObserveDLLP(at units.Time, dir Dir, d *DLLP)
}

// Receiver consumes packets delivered by a link. Delivery transfers
// ownership of the (pooled) TLP to the receiver, which must call
// TLP.Release exactly once when it is done with the packet — synchronously
// inside RxTLP or from a later event.
type Receiver interface {
	RxTLP(t *TLP)
}
