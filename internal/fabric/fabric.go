// Package fabric defines what travels between NICs and the wire it travels
// on: the link-layer Frame with its pool and borrow contract, the transport
// acknowledgement that drives completion generation on the initiator (paper
// §2 step 4), and the wire: its serialization (SerTime, one EDR link's
// constants) and the two latencies of the paper's Network = Wire + Switch
// decomposition (Config).
//
// # Pooled frames and the borrow contract
//
// Frames on the hot path are pooled: the network owns a generation-checked
// arena of value-typed frame slots (NewFrameArena), and the steady-state
// simulated-message path recycles frames instead of allocating them. The
// rules mirror the PCIe packet pool (see internal/pcie):
//
//   - The sending NIC allocates with the network's NewFrame, fills its
//     header fields, attaches the message's payload with
//     Frame.AttachPayload, and hands it to Send. The network owns the
//     frame in flight.
//   - The payload is not copied into the frame: it is a reference to the
//     sender's pooled payload buffer (arena.Buf, from the network's
//     BufPool), shared with the sender's retransmit queue, with every
//     other frame carrying the same WQE and with the receiver's MWr TLPs.
//     A frame holds its own reference from AttachPayload until it is
//     released, which drops it, so every release path — delivery, a
//     refused or discarded frame, a fault drop — returns the buffer
//     once its last holder is done. Nothing writes through a frame's
//     payload, and a released frame keeps no payload bytes.
//   - Delivery transfers ownership to the Port: RxFrame must eventually
//     call Frame.Release — synchronously, or from a later event if receive
//     processing is deferred. The NIC exploits the deferred form for
//     receiver backpressure: it releases a data frame only once the PCIe
//     writes it generated have been issued, so a receiver drowning in
//     overload keeps frames (and, where links carry credits, their
//     final-hop buffer credits) until its host link catches up.
//   - Anything that wants to keep frame contents past its ownership window
//     must copy them or hold the buffer (PayloadBuf().Hold()); Payload()
//     aliases the shared buffer.
//
// Frames constructed directly (&Frame{...}, as tests do) are not pooled and
// Release on them is a no-op.
//
// # Transport ACK and RNR NAK
//
// Every accepted Data frame is answered with a TransportAck retiring the
// initiator's oldest outstanding WQE (paper §2 step 4). A frame the target
// NIC cannot buffer is answered with an RnrNak instead — same reverse-path
// frame shape (AckFor + a Kind retag), same queueing and credits — and the
// initiator retries after a backoff; see internal/nic for the retry state
// machine and ARCHITECTURE.md for the end-to-end credit picture.
//
// Frames carry their transport operation inline (TxOp / AckInfo value
// fields) rather than as boxed interface payloads, so a frame never drags
// heap allocations behind it.
//
// # Delivery
//
// This package defines only the frame, its pool and the wire parameters.
// The one network that carries frames between NICs is internal/topo's
// Fabric: a compiled topology with routing, per-output-port queueing and
// credit flow control, whose two-host back-to-back and single-switch
// shapes reduce to the paper's calibrated two-endpoint model.
package fabric

import (
	"fmt"

	"breakband/internal/arena"
	"breakband/internal/units"
)

// FrameKind distinguishes payload-carrying frames from transport ACKs and
// receiver-not-ready NAKs.
type FrameKind uint8

// Frame kinds.
const (
	Data FrameKind = iota
	TransportAck
	// RnrNak is the receiver-not-ready negative acknowledgement: the
	// target NIC refused the Data frame (rx pend budget exhausted, or no
	// receive posted for a send) and the initiator must retransmit after a
	// backoff. It rides the reverse path exactly like a TransportAck —
	// same AckFor shape, same credits and port queues — carrying the
	// refused WQE's identity in the Ack field.
	RnrNak
	// SeqNak is the sequence-error negative acknowledgement: the target
	// NIC saw a PSN gap (a data frame was lost on a faulty link) and asks
	// the initiator to replay from the expected PSN, carried in the Ack
	// field. Unlike an RNR NAK it implies no backoff — the receiver is
	// ready, the wire lost a frame — so the initiator replays immediately.
	SeqNak
)

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	switch k {
	case Data:
		return "data"
	case TransportAck:
		return "ack"
	case RnrNak:
		return "rnr-nak"
	case SeqNak:
		return "seq-nak"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// TxOp describes the transport operation of a Data frame. The fabric treats
// it as opaque metadata (only the NICs interpret it); it is a flat value so
// frames carry no heap-boxed payloads.
type TxOp struct {
	// Opcode is the transport opcode (an mlx.Opcode; kept as a raw byte so
	// the fabric stays below the descriptor-format layer).
	Opcode uint8
	SrcQPN uint32
	DstQPN uint32
	// RAddr is the RDMA target address.
	RAddr uint64
	// AmID is the active-message id for sends.
	AmID uint8
	// Counter is the initiator-side WQE counter, echoed in the ACK.
	Counter uint16
}

// AckInfo identifies the WQE a TransportAck retires on the initiator.
// ACKs are cumulative (IB coalesced-ACK semantics): Counter retires every
// outstanding WQE up to and including it, so a lost ACK is absorbed by the
// next one. For an RnrNak, Counter is the refused WQE; for a SeqNak it is
// the target's expected PSN (everything before it is implicitly acked).
// An RnrNak advertises no retry delay: the initiator's backoff is fixed
// (see internal/nic).
type AckInfo struct {
	QPN     uint32
	Counter uint16
}

// Frame is a link-layer unit travelling between NICs.
type Frame struct {
	Kind FrameKind
	Src  int // source NIC id
	Dst  int // destination NIC id
	// Op describes the transport operation for Data frames.
	Op TxOp
	// Ack carries the initiator-side WQE identity for TransportAck frames.
	Ack AckInfo
	// Bytes is the on-wire payload size used for serialization.
	Bytes int
	// PSN is the per-QP packet sequence number the sending NIC stamps on
	// Data frames (the transport's BTH PSN; one packet per WQE in this
	// model, so it equals Op.Counter). The target NIC sequence-checks it:
	// duplicates are suppressed and re-acked, gaps answered with a SeqNak.
	PSN uint16
	// Corrupted marks a frame whose CRC a fault injector damaged in
	// flight. The delivery layers discard it at the next store-and-forward
	// check (switch ingress or destination port) — the NIC never sees it,
	// and PSN/timeout recovery takes over.
	Corrupted bool

	// TID is the frame's trace id (internal/trace), stamped by the sending
	// NIC when tracing is enabled. Zero means untraced: every trace emit
	// site checks it, so with tracing disabled the field stays zero and
	// costs nothing. Each transmission gets a fresh id — a replayed WQE is
	// a new flight.
	TID uint32

	// payload is the frame's reference to the sender's pooled payload
	// buffer (zero for ACK-class frames): taken by AttachPayload, dropped
	// when the frame is released.
	payload arena.Buf

	// HopRef is the network's bookkeeping: internal/topo records the
	// final-hop link (index+1; 0 = none) whose buffer credit a delivered
	// frame occupies, returning the credit when the receiver releases the
	// frame. Senders and receivers never touch it.
	HopRef int32

	// RxPendWrites is receiver-side bookkeeping: the NIC counts the
	// host-memory writes this delivered frame generated that are still
	// credit-blocked on the PCIe link, deferring Release (and therefore
	// the final-hop credit return above) until the count drains to zero.
	// Senders and the delivery layers never touch it.
	RxPendWrites int32

	// Slot is the pool bookkeeping (zero for frames constructed
	// directly); it provides Release.
	arena.Slot
}

// Payload returns the frame's payload bytes. The slice aliases the shared
// pooled buffer: read it, never write it, and copy what you keep.
func (f *Frame) Payload() []byte { return f.payload.Bytes() }

// PayloadBuf returns the handle of the frame's payload buffer, for a holder
// that takes its own reference (a TLP carrying the payload on).
func (f *Frame) PayloadBuf() arena.Buf { return f.payload }

// AttachPayload makes the frame carry b: the frame takes its own reference,
// which its release drops. Attach at most once per frame.
func (f *Frame) AttachPayload(b arena.Buf) { f.payload = b.Hold() }

// FrameRef is a generation-checked handle to a pooled frame; see
// pcie.TLPRef for the pattern. The zero FrameRef resolves to nil.
type FrameRef = arena.Ref[Frame]

// Ref returns a generation-checked handle to f.
func (f *Frame) Ref() FrameRef { return arena.MakeRef(f, &f.Slot) }

// NewFrameArena builds a pool of value-typed frame slots (see
// internal/arena). The network (internal/topo's Fabric) owns one. A
// released frame drops its payload reference, then runs released (nil for
// none), the network's hook for the credit the frame held.
func NewFrameArena(released func(*Frame)) *arena.Arena[Frame] {
	a := arena.New(
		func(f *Frame) *arena.Slot { return &f.Slot },
		func(f *Frame) {
			f.Kind = 0
			f.Src = 0
			f.Dst = 0
			f.Op = TxOp{}
			f.Ack = AckInfo{}
			f.Bytes = 0
			f.PSN = 0
			f.Corrupted = false
			f.TID = 0
			f.HopRef = 0
			f.RxPendWrites = 0
		})
	a.SetOnRelease(func(f *Frame) {
		f.payload.Drop()
		f.payload = arena.Buf{}
		if released != nil {
			released(f)
		}
	})
	return a
}

// Port receives frames delivered by the network. Delivery transfers
// ownership of the (pooled) frame to the port, which must call
// Frame.Release exactly once when done with it.
type Port interface {
	RxFrame(f *Frame)
}

// The wire is the paper's one EDR link (§3), so its serialization is a
// constant: the §7 what-if varies only the latencies in Config.
const (
	// wirePerByte is the serialization cost per byte: 80 ps/B, 100 Gb/s.
	wirePerByte units.Time = 80
	// frameOverhead is the per-frame header bytes (LRH/BTH-style).
	frameOverhead = 30
)

// Config holds the two network latencies of the paper's Network = Wire +
// Switch decomposition.
type Config struct {
	// WireProp is the total one-way cable propagation of the two-endpoint
	// path (calibrated so the paper's trace methodology measures its Wire
	// value). A switched path splits it over two cables of WireProp/2.
	WireProp units.Time
	// SwitchLatency is the added forwarding latency of the switch. Whether
	// a path crosses a switch at all is the topology's choice (topo.Spec).
	SwitchLatency units.Time
}

// SerTime reports the wire serialization time of a frame carrying b payload
// bytes (header overhead included). It is the single source of the
// serialization arithmetic shared by every port of internal/topo and its
// calibration view, so the model and the attribution cannot drift.
func SerTime(b int) units.Time {
	return units.Time(b+frameOverhead) * wirePerByte
}

// EgressName is the compiled port name of NIC id's injection egress — the
// name fault schedules use for it on every topology.
func EgressName(id int) string { return fmt.Sprintf("host%d.egress", id) }
