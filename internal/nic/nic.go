// Package nic models the network adapter (ConnectX-4 flavoured) as a PCIe
// endpoint plus a fabric port.
//
// Both descriptor-delivery paths from the paper's §2 are implemented:
//
//   - DoorBell + DMA: software writes the WQE into the send queue ring in
//     host memory, rings the 8-byte DoorBell (MWr), and the NIC DMA-reads
//     the descriptor (MRd/CplD) and, for non-inline payloads, the payload
//     (second MRd/CplD) — the two PCIe round trips the paper highlights as
//     expensive.
//   - PIO (BlueFlame) + inlining: software copies the whole 64-byte WQE,
//     payload included, to device memory in one MWr; the NIC transmits
//     without any DMA read.
//
// Completions: on the transport ACK from the target NIC, a signaled WQE
// produces a 64-byte CQE DMA-written (MWr) to the completion queue; with
// unsignaled completions only every c-th WQE is signaled and one CQE retires
// the whole batch (paper §6). Inbound small sends are delivered as a single
// DMA write of a CQE with inline-scattered payload, so the payload and its
// completion become visible to the polling CPU together.
//
// # Receive-side backpressure: deferred release and RNR NAK
//
// A delivered data frame is not released back to the fabric until every
// host-memory write it generated (the RDMA payload MWr, the receive-buffer
// MWr, the CQE MWr) has actually been issued on the PCIe link. While a
// write sits credit-blocked in the link's pend queue the frame stays held,
// which — because the topology fabric returns the final-hop buffer credit
// only on release — turns receiver-side PCIe overload into hop-by-hop
// fabric backpressure toward the senders for free.
//
// Config.RxBudget bounds how many frames may be held this way. A frame
// arriving with the budget full (or an inbound send with no receive
// posted) is refused with an RNR NAK carrying the refused WQE's counter;
// the target QP then discards every data frame until that counter is
// retransmitted (go-back-N: the trailing in-flight frames are out of
// protocol). The initiator backs off exponentially
// (Config.RnrBackoff..RnrBackoffMax), replays its whole outstanding tail
// from the fixed per-QP retransmit ring, and — after Config.RnrRetryLimit
// consecutive NAKs for the same WQE — fails the QP with an error CQE
// (mlx.CQERnrRetryExc) that retires every outstanding WQE as undelivered.
// With RxBudget zero there is no buffering NAK — held frames are bounded
// only by the fabric's link credits — but a send arriving with no receive
// posted is still RNR-NAKed and retried (that case used to drop silently
// into an RNRDrops counter, stalling the sender forever). See
// ARCHITECTURE.md for how this composes with the PCIe and topology credit
// loops.
//
// The device datapath is allocation-free in steady state: TLPs and frames
// come from the link/network pools (the NIC releases everything delivered
// to it, per the pcie/fabric borrow contracts), DMA-read completions
// dispatch through typed continuation records instead of closures (with
// reads past the 256-tag space queued FIFO rather than failing), and
// descriptors decode into per-QP scratch WQEs whose payload buffers are
// reused. The overload path recycles too: NAK frames and backoff timer
// events are pooled, the retransmit ring and the pend-mirror FIFO reuse
// their buffers, so NAK/retry stays inside the same allocation budget as
// the uncontended path (enforced by internal/simbench).
package nic

import (
	"encoding/binary"
	"fmt"
	"sort"

	"breakband/internal/fabric"
	"breakband/internal/memsim"
	"breakband/internal/mlx"
	"breakband/internal/pcie"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/trace"
	"breakband/internal/units"
)

// Config parameterizes the device.
type Config struct {
	// BARStride is the device-memory span reserved per QP.
	BARStride uint64

	// RxBudget bounds receive-side pend buffering: the number of inbound
	// data frames the NIC may hold while their host-memory writes wait for
	// PCIe posted credits. A delivered frame is only released back to the
	// fabric (returning its final-hop buffer credit) once every MWr it
	// generated has actually been issued on the link, so held frames
	// backpressure the fabric hop by hop; when RxBudget frames are already
	// held, further data frames are refused with an RNR NAK and the sender
	// retries after a backoff. Zero means unbounded (the pre-RNR
	// behaviour: the NIC buffers everything and the PCIe pend queue grows
	// with overload).
	RxBudget int
	// RxBudgetPerQP additionally bounds how many of the held frames may
	// belong to a single QP. A frame that would push its target QP past
	// the per-QP budget is refused with an RNR NAK even while the NIC-wide
	// budget has room, so one overloaded QP cannot monopolize the shared
	// pend buffering and starve its siblings. Zero disables the per-QP
	// bound (the default; per-QP held counts are still tracked).
	RxBudgetPerQP int
	// RnrRetryLimit is how many RNR retransmit attempts a QP may make for
	// the same head-of-queue WQE before the NIC gives up and writes an
	// error CQE (mlx.CQERnrRetryExc) retiring the whole outstanding tail.
	// The counter resets whenever the QP makes forward progress (an ACK
	// arrives). Zero selects DefaultRnrRetryLimit; negative retries
	// forever (IB's rnr_retry=7 semantics).
	RnrRetryLimit int
	// RnrBackoff is the base sender-side backoff after an RNR NAK; each
	// consecutive NAK for the same WQE doubles it up to RnrBackoffMax.
	// Zero selects DefaultRnrBackoff (zero backoff is not representable —
	// real RNR timers are microseconds, and an instant retry would spin
	// the simulation).
	RnrBackoff units.Time
	// RnrBackoffMax caps the exponential backoff. Zero selects
	// DefaultRnrBackoffMax.
	RnrBackoffMax units.Time
	// RnrNakTimer is the IB-style advertised retry delay the target stamps
	// into the RNR NAKs it sends (AckInfo.Timer). Initiators receiving an
	// advertised timer use it as their backoff base in place of their own
	// RnrBackoff. Zero advertises nothing — initiators fall back to
	// RnrBackoff, bit-identical with the pre-adaptive behaviour.
	RnrNakTimer units.Time

	// AckTimeout is the per-QP local ACK-timeout: how long the initiator
	// waits without transport progress before assuming its unacked tail
	// (or the ACKs for it) was lost and replaying it. Consecutive
	// unanswered timeouts double the wait up to AckTimeoutMax, and each
	// counts against RetryCnt. Zero disables the timer entirely — the
	// lossless-fabric default: no timer events are ever scheduled and
	// behaviour is identical to the pre-reliability NIC.
	AckTimeout units.Time
	// AckTimeoutMax caps the exponential timeout backoff. Zero selects
	// 16 x AckTimeout.
	AckTimeoutMax units.Time
	// RetryCnt is how many transport retries (ACK timeouts plus sequence
	// NAKs) a QP may spend on the same head WQE before the NIC gives up
	// and fails the QP with an error CQE (mlx.CQERetryExc). Resets on any
	// forward progress. Zero selects DefaultRetryCnt; negative retries
	// forever.
	RetryCnt int
}

// RNR retry defaults, applied by New when the Config fields are zero.
const (
	DefaultRnrRetryLimit = 7
	// DefaultRetryCnt mirrors IB's retry_cnt=7.
	DefaultRetryCnt = 7
)

// Default RNR backoff window: ~2 us base (the smallest nonzero IB RNR NAK
// timer class is in that range), doubling to a 32 us cap.
var (
	DefaultRnrBackoff    = units.Microseconds(2)
	DefaultRnrBackoffMax = units.Microseconds(32)
	// DefaultAckTimeout is the ACK-timeout base a lossy-fabric run should
	// start from (internal/node applies it when fault injection is on):
	// comfortably above a healthy round trip, far below a human-visible
	// stall. Note the zero Config value means disabled, not this default.
	DefaultAckTimeout = units.Microseconds(100)
)

// DefaultConfig returns the calibration-neutral configuration.
func DefaultConfig() Config {
	return Config{BARStride: 0x1000}
}

// Register offsets inside a QP's BAR window.
const (
	dbOffset = 0x000 // 8-byte DoorBell register
	bfOffset = 0x100 // 64-byte BlueFlame PIO buffer
)

// txRec tracks an executed, not-yet-acknowledged WQE. It doubles as the
// retransmission record: op and payload are everything needed to rebuild
// the frame when an RNR NAK forces a go-back-N replay (real hardware
// re-reads the WQE from the send queue; the model keeps the equivalent
// state in the ring so the PIO path — whose descriptors never touch host
// memory — replays identically). Records live in a fixed ring sized by the
// send queue depth; payload buffers are reused across ring passes, so the
// steady-state path allocates nothing.
type txRec struct {
	counter  uint16
	signaled bool
	op       fabric.TxOp
	payload  []byte
}

// QP is a queue pair: a send queue, its completion queues, and a reliable
// connection to a remote QP.
type QP struct {
	nic *NIC
	// QPN is the queue pair number, unique per NIC.
	QPN uint32
	// Label optionally names the QP's owner for reports — e.g. a workload
	// cohort ("wl/storm"). Upper layers set it through uct.Ep.SetLabel;
	// the NIC never reads it.
	Label string
	// SQ is the send queue ring in host memory (used by the DoorBell+DMA
	// path; the PIO path bypasses it).
	SQ mlx.Ring
	// SendCQ receives request completions; RecvCQ receives inbound-send
	// completions.
	SendCQ mlx.Ring
	RecvCQ mlx.Ring
	// DBRAddr is the doorbell record (software producer counter) in host
	// memory; DBAddr and BFAddr are the device-memory registers.
	DBRAddr uint64
	DBAddr  uint64
	BFAddr  uint64

	remoteNIC int
	remoteQPN uint32

	// Device-side state.
	fetchNext    uint16 // next WQE counter to DMA-fetch (DoorBell path)
	fetchCounter uint16 // counter of the descriptor currently being fetched
	doorbellPI   uint16 // latest producer counter rung via the DoorBell
	fetching     bool   // a descriptor fetch chain is in flight
	// fetchWQE is the caller-owned scratch the fetch chain decodes into;
	// the fetching flag serializes its use per QP.
	fetchWQE mlx.WQE
	// txRing is the ring of executed, awaiting-ACK WQEs (the retransmit
	// buffer): txRing[txHead] is the oldest outstanding record and txN the
	// live count. Sized to the send queue depth at CreateQP.
	txRing []txRec
	txHead int
	txN    int

	sendCQPI   uint16 // producer counter of SendCQ
	recvCQPI   uint16 // producer counter of RecvCQ
	recvPosted int    // receive credits posted by software
	rqAddrs    []uint64

	// Initiator-side RNR state: awaitingRetry is set between an RNR NAK
	// and its backoff timer firing (new WQEs executed meanwhile are parked
	// in the ring and ride the replay); rnrEv is the pooled backoff event
	// so QP death can cancel it; rnrRetries counts consecutive NAKs for
	// the current head WQE and resets on any ACK.
	awaitingRetry bool
	rnrEv         sim.EventRef
	rnrRetries    int
	// Initiator-side loss-recovery state (all dormant with AckTimeout
	// zero): retries counts transport retries — ACK timeouts plus sequence
	// NAKs — charged against Config.RetryCnt, resetting on progress.
	// ackArmed marks the QP's single lazy timeout event as scheduled;
	// ackWait is when the QP last saw transport progress (the timeout
	// deadline is ackWait plus the current effective timeout); tmoStreak
	// counts consecutive unanswered timeouts, doubling the wait.
	retries   int
	ackArmed  bool
	ackEv     sim.EventRef
	ackWait   units.Time
	tmoStreak int
	// Errored marks a QP that entered the error state — retry-budget
	// exhaustion or a local NIC crash: the NIC wrote an error CQE retiring
	// the outstanding tail and will transmit nothing more. WQEs posted
	// afterwards are flushed with CQEFlushErr completions (counted in
	// Flushed), as ibverbs flushes work requests on an error-state QP.
	Errored bool
	// Flushed counts WQEs flushed unexecuted on an errored QP.
	Flushed uint64
	// QPFails counts transitions into the error state (at most one per
	// QP); FlushedRecvs counts posted receives flushed with error CQEs
	// when the local NIC crashed.
	QPFails      uint64
	FlushedRecvs uint64

	// Receive-side pend accounting for this QP: rxHeld counts the NIC's
	// held frames that target this QP (its share of NIC.RxHeld), rxHeldMax
	// the per-QP high-water mark. With Config.RxBudgetPerQP > 0 admission
	// refuses frames that would push rxHeld past the per-QP budget.
	rxHeld    int
	rxHeldMax int

	// Target-side recovery state: after refusing a frame (RNR) or seeing
	// a sequence gap the QP discards every data frame until the expected
	// PSN (rxResume, always the current rxPSN) is retransmitted — the
	// trailing in-flight frames of a go-back-N replay window arrive out
	// of protocol and are dropped exactly once each.
	rxRecovery bool
	rxResume   uint16
	// rxPSN is the next expected packet sequence number: frames below it
	// are duplicates (suppressed and cumulatively re-ACKed), frames above
	// it are a gap (discarded, answered with one SeqNak per recovery
	// round).
	rxPSN uint16

	// Counters for tests and reports.
	TxFrames, RxFrames, CQEsWritten uint64
	// RNR / retry statistics. Sent/Discarded count on the target side,
	// Recv/Retransmits/Exhausted on the initiator side; RnrStall is the
	// initiator's accumulated backoff time.
	RNRNaksSent    uint64
	RxDiscarded    uint64
	RNRNaksRecv    uint64
	RnrRetransmits uint64
	RetryExhausted uint64
	RnrStall       units.Time
	// Loss-recovery statistics. SeqNaksSent/DupRxFrames count on the
	// target side (sequence gaps NAKed; duplicate deliveries suppressed),
	// SeqNaksRecv/AckTimeouts/Retransmits on the initiator side
	// (Retransmits counts individual frame replays from every recovery
	// path: RNR, sequence NAK and ACK timeout).
	SeqNaksSent uint64
	SeqNaksRecv uint64
	DupRxFrames uint64
	AckTimeouts uint64
	Retransmits uint64
}

// dmaKind selects the typed continuation an MRd completion dispatches to.
type dmaKind uint8

const (
	dmaNone         dmaKind = iota // tag not in use
	dmaWQEFetch                    // descriptor fetch; continues in onWQEFetched
	dmaPayloadFetch                // gather payload fetch; continues in onPayloadFetched
)

// dmaCont is the typed continuation record for one outstanding DMA read —
// the closure-free replacement for the old map of func(*pcie.TLP).
type dmaCont struct {
	kind dmaKind
	qp   *QP
}

// dmaReq is a DMA read waiting for a free tag. The PCIe tag space allows
// 256 outstanding reads; requests beyond that queue here (FIFO) instead of
// failing, exactly as hardware would throttle descriptor fetches.
type dmaReq struct {
	addr uint64
	n    int
	kind dmaKind
	qp   *QP
}

// NIC is the device model.
type NIC struct {
	k    *sim.Kernel
	id   int
	mem  *memsim.Memory
	link *pcie.Link
	net  *topo.Fabric
	cfg  Config
	// tr is the kernel's event tracer, captured at construction (nil when
	// tracing is disabled — every emit site is behind one pointer test).
	// The NIC is the trace authority for frame identity: it stamps a fresh
	// TID on every transmission (replays included), so each flight is
	// distinguishable downstream.
	tr *trace.Tracer

	qps     map[uint32]*QP
	byBAR   map[uint64]*QP // BAR window base -> QP
	nextQPN uint32
	barNext uint64

	// Endpoint-failure state. dead marks a crashed NIC (inbound frames
	// discard, WQEs flush, nothing transmits); everCrashed stays set across
	// a restart so frames addressed to a wiped pre-crash QP generation
	// discard instead of panicking. retired accumulates the counters of
	// QPs wiped by Restart so Stats survives the generation change;
	// crashDiscards counts frames discarded because the NIC was dark (or
	// addressed a wiped QP).
	dead          bool
	everCrashed   bool
	retired       Stats
	crashDiscards uint64

	// DMA-read engine: typed continuations indexed by PCIe tag, plus the
	// FIFO of reads blocked on tag exhaustion.
	nextTag       uint8
	inflight      [256]dmaCont
	inflightReads int
	dmaPending    []dmaReq

	// bfWQE is the scratch descriptor BlueFlame PIO writes decode into
	// (consumed synchronously by execWQE).
	bfWQE mlx.WQE

	// Receive-side pend accounting. rxHeld counts delivered data frames
	// whose host-memory writes are still credit-blocked on the PCIe link
	// (the frame stays unreleased — and its final-hop fabric credit stays
	// consumed — until the last write issues); rxHeldMax is the high-water
	// mark. upPendQ mirrors the link's upstream pend queue slot for slot:
	// one entry per credit-blocked TLP, holding the frame whose write it
	// is (nil for TLPs not tied to a frame, e.g. descriptor-fetch MRds).
	rxHeld    int
	rxHeldMax int
	upPendQ   frameFIFO

	// Continuations, bound once so the RNR backoff / ACK-timeout timers
	// schedule without closures.
	retransmitFn func(any)
	ackTimeoutFn func(any)
}

// frameFIFO is a growable ring of frame pointers (nil entries allowed). Its
// capacity reaches a high-water mark bounded by the rx budget and is reused
// thereafter, keeping the overload path allocation-free in steady state.
type frameFIFO struct {
	buf  []*fabric.Frame
	head int
	n    int
}

func (q *frameFIFO) push(f *fabric.Frame) {
	if q.n == len(q.buf) {
		nb := make([]*fabric.Frame, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			nb[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = f
	q.n++
}

func (q *frameFIFO) pop() *fabric.Frame {
	if q.n == 0 {
		panic("nic: pend FIFO underflow (issue notification without a pended TLP)")
	}
	f := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return f
}

var (
	_ pcie.Receiver = (*NIC)(nil)
	_ fabric.Port   = (*NIC)(nil)
)

// New creates a NIC with the given fabric identity, attaching it to the PCIe
// link's endpoint side and to the network, a compiled internal/topo fabric.
func New(k *sim.Kernel, id int, mem *memsim.Memory, link *pcie.Link, net *topo.Fabric, cfg Config) *NIC {
	if cfg.BARStride == 0 {
		cfg.BARStride = 0x1000
	}
	if cfg.RnrRetryLimit == 0 {
		cfg.RnrRetryLimit = DefaultRnrRetryLimit
	}
	if cfg.RnrBackoff == 0 {
		cfg.RnrBackoff = DefaultRnrBackoff
	}
	if cfg.RnrBackoffMax == 0 {
		cfg.RnrBackoffMax = DefaultRnrBackoffMax
	}
	if cfg.RetryCnt == 0 {
		cfg.RetryCnt = DefaultRetryCnt
	}
	if cfg.AckTimeoutMax == 0 {
		cfg.AckTimeoutMax = 16 * cfg.AckTimeout
	}
	n := &NIC{
		k: k, id: id, mem: mem, link: link, net: net, cfg: cfg, tr: k.Tracer(),
		qps:     make(map[uint32]*QP),
		byBAR:   make(map[uint64]*QP),
		barNext: pcie.BARBase,
	}
	n.retransmitFn = func(a any) { n.retransmit(a.(*QP)) }
	n.ackTimeoutFn = func(a any) { n.ackTimeout(a.(*QP)) }
	link.SetEndpointSide(n)
	link.SetOnUpIssued(n.upIssued)
	net.Attach(id, n)
	return n
}

// RxHeld reports the data frames currently held awaiting their PCIe writes;
// RxHeldMax is the run's high-water mark. With Config.RxBudget > 0 the
// high-water mark never exceeds the budget.
func (n *NIC) RxHeld() int { return n.rxHeld }

// RxHeldMax reports the deepest receive-side pend buffering the NIC
// reached.
func (n *NIC) RxHeldMax() int { return n.rxHeldMax }

// RxBudget reports the configured receive-side pend budget (0 = unbounded).
func (n *NIC) RxBudget() int { return n.cfg.RxBudget }

// RxBudgetPerQP reports the configured per-QP pend budget (0 = disabled).
func (n *NIC) RxBudgetPerQP() int { return n.cfg.RxBudgetPerQP }

// RxHeld reports the held data frames currently targeting this QP — its
// share of the NIC-wide NIC.RxHeld.
func (q *QP) RxHeld() int { return q.rxHeld }

// RxHeldMax reports the QP's held-frame high-water mark. With
// Config.RxBudgetPerQP > 0 it never exceeds the per-QP budget.
func (q *QP) RxHeldMax() int { return q.rxHeldMax }

// ID reports the NIC's fabric identity.
func (n *NIC) ID() int { return n.id }

// Stats aggregates transport counters across the NIC's QPs, the
// fault/recovery observability surface (bbperftest reports it).
type Stats struct {
	TxFrames, RxFrames, CQEsWritten uint64
	// Target side.
	RNRNaksSent, SeqNaksSent, RxDiscarded, DupRxFrames uint64
	// Initiator side.
	RNRNaksRecv, SeqNaksRecv, AckTimeouts uint64
	RnrRetransmits, Retransmits           uint64
	RetryExhausted, Flushed               uint64
	// Endpoint-failure counters: QP error-state transitions, frames
	// discarded because the NIC was dark (or addressed a wiped pre-crash
	// QP), and posted receives flushed by a local crash.
	QPFails, CrashDiscards, FlushedRecvs uint64
}

// addQP folds one QP's counters into the aggregate.
func (s *Stats) addQP(qp *QP) {
	s.TxFrames += qp.TxFrames
	s.RxFrames += qp.RxFrames
	s.CQEsWritten += qp.CQEsWritten
	s.RNRNaksSent += qp.RNRNaksSent
	s.SeqNaksSent += qp.SeqNaksSent
	s.RxDiscarded += qp.RxDiscarded
	s.DupRxFrames += qp.DupRxFrames
	s.RNRNaksRecv += qp.RNRNaksRecv
	s.SeqNaksRecv += qp.SeqNaksRecv
	s.AckTimeouts += qp.AckTimeouts
	s.RnrRetransmits += qp.RnrRetransmits
	s.Retransmits += qp.Retransmits
	s.RetryExhausted += qp.RetryExhausted
	s.Flushed += qp.Flushed
	s.QPFails += qp.QPFails
	s.FlushedRecvs += qp.FlushedRecvs
}

// Stats sums the per-QP transport counters (including QP generations wiped
// by a crash-restart) plus the NIC-level crash discards.
func (n *NIC) Stats() Stats {
	s := n.retired
	for _, qp := range n.qps {
		s.addQP(qp)
	}
	s.CrashDiscards = n.crashDiscards
	return s
}

// QPs returns the live queue pairs in QPN order — the per-QP breakdown of
// the transport counters the aggregate Stats sums. Generations wiped by a
// crash-restart are only visible in the aggregate.
func (n *NIC) QPs() []*QP {
	out := make([]*QP, 0, len(n.qps))
	for _, qp := range n.qps {
		out = append(out, qp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QPN < out[j].QPN })
	return out
}

// CreateQP allocates a queue pair with the given ring depths (powers of
// two). Ring memory and the doorbell record are allocated from host memory;
// the DoorBell and BlueFlame registers from the device BAR.
func (n *NIC) CreateQP(sqDepth, cqDepth int) *QP {
	qpn := n.nextQPN
	n.nextQPN++
	base := n.barNext
	n.barNext += n.cfg.BARStride

	dbr := n.mem.Alloc(fmt.Sprintf("nic%d.qp%d.dbr", n.id, qpn), 8, 8)
	qp := &QP{
		nic:     n,
		QPN:     qpn,
		SQ:      mlx.NewRing(n.mem, fmt.Sprintf("nic%d.qp%d.sq", n.id, qpn), sqDepth, mlx.WQESize),
		SendCQ:  mlx.NewRing(n.mem, fmt.Sprintf("nic%d.qp%d.scq", n.id, qpn), cqDepth, mlx.CQESize),
		RecvCQ:  mlx.NewRing(n.mem, fmt.Sprintf("nic%d.qp%d.rcq", n.id, qpn), cqDepth, mlx.CQESize),
		DBRAddr: dbr.Base,
		DBAddr:  base + dbOffset,
		BFAddr:  base + bfOffset,
		// The retransmit ring holds every executed-but-unacknowledged
		// WQE; software cannot keep more than sqDepth in flight.
		txRing: make([]txRec, sqDepth),
	}
	n.qps[qpn] = qp
	n.byBAR[base] = qp
	return qp
}

// Connect establishes the reliable connection between two QPs on different
// NICs (both directions).
func Connect(a, b *QP) {
	a.remoteNIC, a.remoteQPN = b.nic.id, b.QPN
	b.remoteNIC, b.remoteQPN = a.nic.id, a.QPN
}

// PostRecv adds one receive credit (with its buffer address, used only for
// payloads too large for CQE inline scatter).
func (qp *QP) PostRecv(addr uint64) {
	qp.recvPosted++
	qp.rqAddrs = append(qp.rqAddrs, addr)
}

// RecvPosted reports available receive credits.
func (qp *QP) RecvPosted() int { return qp.recvPosted }

// ---------- PCIe endpoint side ----------

// RxTLP implements pcie.Receiver for downstream traffic. The NIC consumes
// every delivered TLP synchronously (decoding or copying what it needs) and
// releases it before returning.
func (n *NIC) RxTLP(t *pcie.TLP) {
	switch t.Type {
	case pcie.MWr:
		n.rxMMIO(t)
	case pcie.CplD:
		rec := n.inflight[t.Tag]
		if rec.kind == dmaNone {
			panic(fmt.Sprintf("nic%d: CplD with unknown tag %d", n.id, t.Tag))
		}
		n.inflight[t.Tag] = dmaCont{}
		n.inflightReads--
		switch rec.kind {
		case dmaWQEFetch:
			rec.qp.onWQEFetched(t.Data)
		case dmaPayloadFetch:
			rec.qp.onPayloadFetched(t.Data)
		}
		// The freed tag (and any the continuation released) goes to the
		// oldest queued reads, preserving issue order.
		for n.inflightReads < len(n.inflight) && len(n.dmaPending) > 0 {
			rq := n.dmaPending[0]
			n.dmaPending = n.dmaPending[1:]
			if len(n.dmaPending) == 0 {
				n.dmaPending = nil
			}
			n.issueDMARead(rq.addr, rq.n, rq.kind, rq.qp)
		}
	default:
		panic(fmt.Sprintf("nic%d: unexpected downstream %v", n.id, t.Type))
	}
	t.Release()
}

// rxMMIO decodes a device-memory write: an 8-byte DoorBell ring or a 64-byte
// BlueFlame PIO descriptor.
func (n *NIC) rxMMIO(t *pcie.TLP) {
	base := pcie.BARBase + (t.Addr-pcie.BARBase)/n.cfg.BARStride*n.cfg.BARStride
	qp, ok := n.byBAR[base]
	if !ok {
		panic(fmt.Sprintf("nic%d: MWr to unmapped BAR %#x", n.id, t.Addr))
	}
	switch t.Addr - base {
	case dbOffset:
		if len(t.Data) < 2 {
			panic(fmt.Sprintf("nic%d: short DoorBell write (%d bytes)", n.id, len(t.Data)))
		}
		qp.ringDoorbell(binary.LittleEndian.Uint16(t.Data))
	case bfOffset:
		if err := n.bfWQE.DecodeFrom(t.Data); err != nil {
			panic(fmt.Sprintf("nic%d: bad BlueFlame WQE: %v", n.id, err))
		}
		// A BlueFlame write consumes one producer slot without a DoorBell
		// ring; keep both cursors in step so a later DoorBell post (a gather
		// descriptor sharing this QP) fetches only slots the PIO path has not
		// already delivered. When an older descriptor fetch is still in
		// flight the hint cannot be consumed in order, so fall back to
		// fetching the ring copy software stored alongside the PIO write.
		newPI := n.bfWQE.WQEIdx + 1
		qp.doorbellPI = newPI
		if !qp.fetching && qp.fetchNext == n.bfWQE.WQEIdx {
			qp.fetchNext = newPI
			n.execWQE(qp, &n.bfWQE)
		} else {
			qp.fetchNextWQE()
		}
	default:
		panic(fmt.Sprintf("nic%d: MWr to unknown register offset %#x", n.id, t.Addr-base))
	}
}

// sendUp transmits a TLP towards the RC, mirroring the link's pend queue:
// every credit-blocked TLP pushes one upPendQ entry carrying the inbound
// frame whose host write it is (nil when the TLP is not part of receive
// processing), so upIssued can pop entries in the same FIFO order the link
// reports them.
func (n *NIC) sendUp(t *pcie.TLP, f *fabric.Frame) {
	if n.link.SendUp(t) {
		return
	}
	n.upPendQ.push(f)
	if f != nil {
		f.RxPendWrites++
	}
}

// upIssued is the link's OnUpIssued hook: a previously credit-blocked
// upstream TLP finally transmitted. If it was the last outstanding host
// write of a held inbound frame, the frame is released — returning its
// final-hop fabric buffer credit, which is what makes receiver overload
// backpressure the network instead of accumulating in the PCIe pend queue.
func (n *NIC) upIssued(*pcie.TLP) {
	f := n.upPendQ.pop()
	if f == nil {
		return
	}
	f.RxPendWrites--
	if f.RxPendWrites == 0 {
		n.rxHeld--
		// The frame is still alive here, so its target QP is recoverable
		// the same way rxData resolved it at admission.
		if qp, ok := n.qps[f.Op.DstQPN]; ok {
			qp.rxHeld--
		}
		if n.tr != nil && f.TID != 0 {
			n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvRelease, TID: f.TID, Node: int16(n.id)})
		}
		f.Release()
	}
}

// dmaRead issues an MRd with a typed completion record, or queues the
// request when the 256-entry tag space is exhausted (or older requests are
// already queued — FIFO order is preserved either way).
func (n *NIC) dmaRead(addr uint64, ln int, kind dmaKind, qp *QP) {
	if n.inflightReads == len(n.inflight) || len(n.dmaPending) > 0 {
		n.dmaPending = append(n.dmaPending, dmaReq{addr: addr, n: ln, kind: kind, qp: qp})
		return
	}
	n.issueDMARead(addr, ln, kind, qp)
}

// issueDMARead sends the MRd on a free tag. The caller guarantees one
// exists (inflightReads < 256).
func (n *NIC) issueDMARead(addr uint64, ln int, kind dmaKind, qp *QP) {
	for n.inflight[n.nextTag].kind != dmaNone {
		n.nextTag++
	}
	tag := n.nextTag
	n.nextTag++
	n.inflight[tag] = dmaCont{kind: kind, qp: qp}
	n.inflightReads++
	t := n.link.NewTLP()
	t.Type = pcie.MRd
	t.Addr = addr
	t.ReadLen = ln
	t.Tag = tag
	n.sendUp(t, nil)
}

// ringDoorbell handles the 8-byte DoorBell: the NIC learns the new producer
// counter and fetches the outstanding descriptors by DMA, strictly in order.
func (qp *QP) ringDoorbell(newPI uint16) {
	qp.doorbellPI = newPI
	qp.fetchNextWQE()
}

// flushRungWQEs is the dead-device descriptor path: the driver flushes the
// rung-but-unfetched descriptors with error completions so software's
// in-flight accounting still terminates.
func (qp *QP) flushRungWQEs() {
	for qp.fetchNext != qp.doorbellPI {
		qp.Flushed++
		qp.nic.hostWriteSendCQE(qp, qp.fetchNext, mlx.CQEFlushErr)
		qp.fetchNext++
	}
}

// fetchNextWQE starts the next descriptor fetch if none is in flight. The
// drain is iterative: each completion event (onWQEFetched/onPayloadFetched)
// executes the descriptor and calls back here to issue the next read, so a
// deep doorbell batch costs constant stack regardless of depth.
func (qp *QP) fetchNextWQE() {
	if qp.nic.dead {
		qp.flushRungWQEs()
		return
	}
	if qp.fetching || qp.fetchNext == qp.doorbellPI {
		return
	}
	qp.fetching = true
	qp.fetchCounter = qp.fetchNext
	qp.fetchNext++
	qp.nic.dmaRead(qp.SQ.EntryAddr(qp.fetchCounter), mlx.WQESize, dmaWQEFetch, qp)
}

// onWQEFetched continues the fetch chain when the descriptor CplD arrives.
// data is borrowed from the delivered TLP; DecodeFrom copies what the WQE
// keeps.
func (qp *QP) onWQEFetched(data []byte) {
	if err := qp.fetchWQE.DecodeFrom(data); err != nil {
		panic(fmt.Sprintf("nic%d: bad DMA WQE at counter %d: %v", qp.nic.id, qp.fetchCounter, err))
	}
	if qp.fetchWQE.Inline {
		qp.nic.execWQE(qp, &qp.fetchWQE)
		qp.fetching = false
		qp.fetchNextWQE()
		return
	}
	if qp.nic.dead {
		// The NIC died while this descriptor's fetch was in flight: no
		// payload read is possible, so the driver flushes it (and whatever
		// else was rung) instead of gathering.
		qp.Flushed++
		qp.nic.hostWriteSendCQE(qp, qp.fetchCounter, mlx.CQEFlushErr)
		qp.fetching = false
		qp.flushRungWQEs()
		return
	}
	// Second round trip: fetch the payload from registered memory.
	qp.nic.dmaRead(qp.fetchWQE.GatherAddr, int(qp.fetchWQE.GatherLen), dmaPayloadFetch, qp)
}

// onPayloadFetched completes a gather descriptor: the payload is copied out
// of the borrowed CplD data into the scratch WQE, which is then executed.
func (qp *QP) onPayloadFetched(data []byte) {
	qp.fetchWQE.Payload = append(qp.fetchWQE.Payload[:0], data...)
	qp.nic.execWQE(qp, &qp.fetchWQE)
	qp.fetching = false
	qp.fetchNextWQE()
}

// execWQE records a decoded descriptor in the retransmit ring and transmits
// it onto the fabric. The WQE (often a scratch) is consumed synchronously:
// its payload is copied into the ring record and from there into the pooled
// frame. While the QP is waiting out an RNR backoff the frame is not
// transmitted: the record rides the go-back-N replay instead.
func (n *NIC) execWQE(qp *QP, w *mlx.WQE) {
	if w.QPN != qp.QPN {
		panic(fmt.Sprintf("nic%d: WQE qpn %d posted to qp %d", n.id, w.QPN, qp.QPN))
	}
	if qp.Errored {
		// The QP already failed (retry exhaustion or a NIC crash) but
		// software may not have polled the error CQE yet: flush the WQE
		// with an error completion instead of transmitting, as ibverbs
		// does (IBV_WC_WR_FLUSH_ERR). The completion keeps the
		// software-side in-flight accounting consistent. On a dead NIC the
		// flush CQE is driver-synthesized straight into host memory.
		qp.Flushed++
		if n.dead {
			n.hostWriteSendCQE(qp, w.WQEIdx, mlx.CQEFlushErr)
		} else {
			n.writeSendCQE(qp, w.WQEIdx, mlx.CQEFlushErr)
		}
		return
	}
	if qp.txN == len(qp.txRing) {
		panic(fmt.Sprintf("nic%d: qp %d outstanding ring overflow (%d WQEs unacknowledged)", n.id, qp.QPN, qp.txN))
	}
	rec := &qp.txRing[(qp.txHead+qp.txN)%len(qp.txRing)]
	qp.txN++
	rec.counter = w.WQEIdx
	rec.signaled = w.Signaled
	rec.op = fabric.TxOp{
		Opcode:  uint8(w.Opcode),
		SrcQPN:  qp.QPN,
		DstQPN:  qp.remoteQPN,
		RAddr:   w.RemoteAddr,
		AmID:    w.AmID,
		Counter: w.WQEIdx,
	}
	rec.payload = append(rec.payload[:0], w.Payload...)
	qp.TxFrames++
	if n.cfg.AckTimeout > 0 {
		if qp.txN == 1 {
			// First outstanding WQE: the progress clock starts now.
			qp.ackWait = n.k.Now()
		}
		n.armAckTimer(qp)
	}
	if qp.awaitingRetry {
		return
	}
	n.txRecFrame(qp, rec)
}

// txRecFrame builds the wire frame for a ring record and transmits it (the
// shared tail of first transmission and RNR replay).
func (n *NIC) txRecFrame(qp *QP, rec *txRec) {
	f := n.net.NewFrame()
	f.Kind = fabric.Data
	f.Src = n.id
	f.Dst = qp.remoteNIC
	f.Bytes = len(rec.payload)
	f.Op = rec.op
	f.PSN = rec.counter
	f.SetPayload(rec.payload)
	if n.tr != nil {
		f.TID = n.tr.NextTID()
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvInject, TID: f.TID,
			Node: int16(n.id), Arg: trace.ArgMsg(qp.QPN, len(rec.payload), uint32(rec.counter))})
	}
	n.net.Send(f)
}

// ---------- fabric port side ----------

// RxFrame implements fabric.Port: it dispatches a delivered frame and
// releases it — immediately for ACKs, NAKs, refused and discarded data
// frames, or once the last host-memory write of an accepted data frame has
// been issued on the PCIe link (rxData reports true for frames held that
// way; upIssued performs the deferred release).
func (n *NIC) RxFrame(f *fabric.Frame) {
	if n.dead {
		// The NIC is dark: whatever arrives is dropped on the floor. Peers
		// discover the death through their own ACK-timeout path.
		n.crashDiscards++
		if n.tr != nil && f.TID != 0 {
			n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvDrop, TID: f.TID, Node: int16(n.id)})
			n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvRelease, TID: f.TID, Node: int16(n.id)})
		}
		f.Release()
		return
	}
	switch f.Kind {
	case fabric.Data:
		if n.rxData(f) {
			return
		}
	case fabric.TransportAck:
		n.rxAck(f.Ack)
	case fabric.RnrNak:
		n.rxNak(f.Ack)
	case fabric.SeqNak:
		n.rxSeqNak(f.Ack)
	}
	// ACK-class frames are never TID-stamped, so this release emit covers
	// exactly the data frames that were not held for deferred release:
	// refused, discarded and duplicate flights (already marked dead) plus
	// accepted frames whose host writes all issued immediately.
	if n.tr != nil && f.TID != 0 {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvRelease, TID: f.TID, Node: int16(n.id)})
	}
	f.Release()
}

// rxData handles an inbound data frame on the target NIC, reporting whether
// the frame is held for deferred release. The frame's payload is borrowed;
// everything the NIC forwards is copied into pooled TLPs before rxData
// returns.
//
// Sequence checking runs first (IB RC BTH PSN semantics): a frame below
// the expected PSN is a duplicate — already delivered, replayed because an
// acknowledgement was lost — and is suppressed with a cumulative re-ACK; a
// frame above it is a gap — something before it was lost — and is
// discarded, answered with one sequence-error NAK per recovery round (the
// trailing frames of a go-back-N replay window drop silently). Then
// admission control: a frame that would exceed the rx pend budget — or a
// send with no receive posted — is refused with an RNR NAK instead of
// being buffered.
func (n *NIC) rxData(f *fabric.Frame) (held bool) {
	op := &f.Op
	qp, ok := n.qps[op.DstQPN]
	if !ok {
		if n.everCrashed {
			// A frame addressed to a QP generation wiped by crash-restart:
			// stale traffic from before the death, silently discarded.
			n.crashDiscards++
			n.traceDrop(f)
			return false
		}
		panic(fmt.Sprintf("nic%d: data frame for unknown qp %d", n.id, op.DstQPN))
	}
	if d := int16(f.PSN - qp.rxPSN); d != 0 {
		if d < 0 {
			// Duplicate: the payload already reached the application
			// exactly once; only the acknowledgement needs repair.
			qp.DupRxFrames++
			n.traceDrop(f)
			n.net.Send(n.net.AckFor(f, fabric.AckInfo{QPN: op.SrcQPN, Counter: qp.rxPSN - 1}))
			return false
		}
		qp.RxDiscarded++
		n.traceDrop(f)
		if !qp.rxRecovery {
			qp.SeqNaksSent++
			qp.rxRecovery = true
			qp.rxResume = qp.rxPSN
			nak := n.net.AckFor(f, fabric.AckInfo{QPN: op.SrcQPN, Counter: qp.rxPSN})
			nak.Kind = fabric.SeqNak
			n.net.Send(nak)
		}
		return false
	}
	needsRecv := mlx.Opcode(op.Opcode) == mlx.OpSend
	if (n.cfg.RxBudget > 0 && n.rxHeld >= n.cfg.RxBudget) ||
		(n.cfg.RxBudgetPerQP > 0 && qp.rxHeld >= n.cfg.RxBudgetPerQP) ||
		(needsRecv && qp.recvPosted == 0) {
		n.refuse(qp, f)
		return false
	}
	qp.rxRecovery = false
	qp.rxPSN++
	qp.RxFrames++
	payload := f.Payload()
	switch mlx.Opcode(op.Opcode) {
	case mlx.OpRDMAWrite:
		// One-sided: DMA-write the payload to the remote address. No
		// CQE, no CPU involvement on this node.
		t := n.link.NewTLP()
		t.Type = pcie.MWr
		t.Addr = op.RAddr
		t.SetData(payload)
		n.sendUp(t, f)
	case mlx.OpSend:
		qp.recvPosted--
		bufAddr := qp.rqAddrs[0]
		qp.rqAddrs = qp.rqAddrs[1:]
		inline := len(payload) <= mlx.ScatterMax
		cqe := mlx.CQE{
			Op:         mlx.CQERecv,
			WQECounter: qp.recvCQPI,
			QPN:        qp.QPN,
			ByteCnt:    uint32(len(payload)),
			AmID:       op.AmID,
			Gen:        qp.RecvCQ.Gen(qp.recvCQPI),
		}
		if inline {
			// CQE inline scatter: payload and completion arrive in
			// one DMA write (paper's RC-to-MEM(xB) + poll model).
			cqe.Payload = payload
		} else {
			// Large payload: DMA-write to the posted buffer, then
			// the CQE.
			t := n.link.NewTLP()
			t.Type = pcie.MWr
			t.Addr = bufAddr
			t.SetData(payload)
			n.sendUp(t, f)
		}
		enc, err := cqe.Encode()
		if err != nil {
			panic(fmt.Sprintf("nic%d: CQE encode: %v", n.id, err))
		}
		t := n.link.NewTLP()
		t.Type = pcie.MWr
		t.Addr = qp.RecvCQ.EntryAddr(qp.recvCQPI)
		t.SetData(enc[:])
		qp.recvCQPI++
		qp.CQEsWritten++
		if n.tr != nil {
			n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvCQE,
				Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(cqe.WQECounter))})
		}
		n.sendUp(t, f)
	default:
		panic(fmt.Sprintf("nic%d: unexpected opcode %v", n.id, mlx.Opcode(op.Opcode)))
	}
	if f.RxPendWrites > 0 {
		// At least one host write is credit-blocked: hold the frame (and
		// its final-hop fabric credit) until the last write issues.
		held = true
		n.rxHeld++
		if n.rxHeld > n.rxHeldMax {
			n.rxHeldMax = n.rxHeld
		}
		qp.rxHeld++
		if qp.rxHeld > qp.rxHeldMax {
			qp.rxHeldMax = qp.rxHeld
		}
	}
	// Transport-level acknowledgement back to the initiator (paper §2
	// step 4).
	n.net.Send(n.net.AckFor(f, fabric.AckInfo{QPN: op.SrcQPN, Counter: op.Counter}))
	return held
}

// traceDrop marks a delivered-but-discarded data frame's flight dead in the
// trace (duplicate, sequence gap, or stale post-crash traffic) so the
// attribution cannot mistake its release for a message completion.
func (n *NIC) traceDrop(f *fabric.Frame) {
	if n.tr != nil && f.TID != 0 {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvDrop, TID: f.TID, Node: int16(n.id)})
	}
}

// refuse answers a data frame the NIC cannot buffer with an RNR NAK and
// puts the target QP into recovery: every later frame is discarded until
// the refused counter is retransmitted. The NAK advertises
// Config.RnrNakTimer (when set) as the initiator's backoff base.
func (n *NIC) refuse(qp *QP, f *fabric.Frame) {
	qp.RNRNaksSent++
	if n.tr != nil && f.TID != 0 {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvRefuse, TID: f.TID,
			Node: int16(n.id), Arg: trace.ArgMsg(f.Op.SrcQPN, 0, uint32(f.PSN))})
	}
	qp.rxRecovery = true
	qp.rxResume = f.Op.Counter
	nak := n.net.AckFor(f, fabric.AckInfo{QPN: f.Op.SrcQPN, Counter: f.Op.Counter, Timer: n.cfg.RnrNakTimer})
	nak.Kind = fabric.RnrNak
	n.net.Send(nak)
}

// rxAck handles a transport ACK on the initiator NIC. ACKs are cumulative
// (IB coalesced-ACK semantics): the carried counter retires every
// outstanding WQE up to and including it, DMA-writing a CQE for each
// signaled one (paper §2 step 5); unsignaled WQEs complete silently and
// the next signaled CQE's counter retires them at the software level. On a
// lossless fabric each ACK retires exactly the head record, byte-identical
// with the old one-ACK-one-WQE path; under loss a cumulative re-ACK after
// a timeout replay retires the whole duplicated stretch at once, and an
// ACK for an already-retired counter (a duplicated acknowledgement) is
// stale and retires nothing. Any forward progress resets the QP's retry
// accounting — the retry budgets are per head WQE, as on real RC
// transports.
func (n *NIC) rxAck(c fabric.AckInfo) {
	qp, ok := n.qps[c.QPN]
	if !ok {
		if n.everCrashed {
			n.crashDiscards++
			return
		}
		panic(fmt.Sprintf("nic%d: ACK for unknown qp %d", n.id, c.QPN))
	}
	if qp.Errored {
		return
	}
	if n.retireThrough(qp, c.Counter) > 0 {
		qp.rnrRetries = 0
		qp.retries = 0
		qp.tmoStreak = 0
		qp.ackWait = n.k.Now()
	}
}

// retireThrough retires every outstanding record whose counter is at or
// before the acknowledged counter (wraparound-safe), writing OK CQEs for
// the signaled ones, and reports how many records it retired.
func (n *NIC) retireThrough(qp *QP, counter uint16) int {
	retired := 0
	for qp.txN > 0 {
		rec := &qp.txRing[qp.txHead]
		if int16(counter-rec.counter) < 0 {
			break
		}
		cnt, signaled := rec.counter, rec.signaled
		qp.txHead = (qp.txHead + 1) % len(qp.txRing)
		qp.txN--
		retired++
		if signaled {
			n.writeSendCQE(qp, cnt, mlx.CQEOK)
		}
	}
	if qp.ackArmed && qp.txN == 0 {
		// The whole tail is acknowledged: nothing is left for the timer
		// to watch, so cancel it rather than let a dead no-op event pin
		// the simulation end-time a timeout into the future.
		qp.ackArmed = false
		qp.ackEv.Cancel()
	}
	return retired
}

// writeSendCQE DMA-writes a request completion with the given status to the
// QP's send CQ.
func (n *NIC) writeSendCQE(qp *QP, counter uint16, status uint8) {
	cqe := mlx.CQE{
		Op:         mlx.CQEReq,
		WQECounter: counter,
		QPN:        qp.QPN,
		Status:     status,
		Gen:        qp.SendCQ.Gen(qp.sendCQPI),
	}
	enc, err := cqe.Encode()
	if err != nil {
		panic(fmt.Sprintf("nic%d: CQE encode: %v", n.id, err))
	}
	t := n.link.NewTLP()
	t.Type = pcie.MWr
	t.Addr = qp.SendCQ.EntryAddr(qp.sendCQPI)
	t.SetData(enc[:])
	qp.sendCQPI++
	qp.CQEsWritten++
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvCQE,
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(counter))})
	}
	n.sendUp(t, nil)
}

// rxNak handles an RNR NAK on the initiator NIC. On a lossless fabric the
// refused WQE is always the head of the outstanding ring (the transport is
// strictly ordered and the target NAKs at most once per replay round); a
// NAK implicitly acknowledges everything before the refused counter, and
// one whose counter is no longer the head — its replay round was
// superseded while the NAK travelled — is stale and ignored. The QP backs
// off exponentially before replaying the whole outstanding tail: the base
// is the NAK's advertised IB-style timer field when the target set one,
// else Config.RnrBackoff (bit-identical with the pre-adaptive default),
// doubling per consecutive NAK up to Config.RnrBackoffMax (but never below
// the advertised base). When consecutive NAKs for the same WQE exceed
// Config.RnrRetryLimit the QP fails with an error CQE instead.
func (n *NIC) rxNak(c fabric.AckInfo) {
	qp, ok := n.qps[c.QPN]
	if !ok {
		if n.everCrashed {
			n.crashDiscards++
			return
		}
		panic(fmt.Sprintf("nic%d: RNR NAK for unknown qp %d", n.id, c.QPN))
	}
	if qp.Errored {
		return
	}
	n.retireThrough(qp, c.Counter-1)
	if qp.txN == 0 || qp.txRing[qp.txHead].counter != c.Counter {
		return
	}
	qp.RNRNaksRecv++
	qp.rnrRetries++
	if n.cfg.RnrRetryLimit >= 0 && qp.rnrRetries > n.cfg.RnrRetryLimit {
		n.failQP(qp, mlx.CQERnrRetryExc)
		return
	}
	shift := qp.rnrRetries - 1
	if shift > 16 {
		shift = 16
	}
	base := n.cfg.RnrBackoff
	if c.Timer > 0 {
		base = c.Timer
	}
	backoff := base << uint(shift)
	if backoff > n.cfg.RnrBackoffMax {
		backoff = n.cfg.RnrBackoffMax
	}
	if backoff < base {
		backoff = base
	}
	qp.awaitingRetry = true
	qp.RnrStall += backoff
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvNakRx,
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(backoff))})
	}
	qp.rnrEv = n.k.AfterArg(backoff, n.retransmitFn, qp)
}

// rxSeqNak handles a sequence-error NAK on the initiator NIC: the target
// saw a gap at the carried counter, so everything before it arrived (the
// NAK acknowledges cumulatively) and the frame carrying that counter was
// lost on the wire. Unlike RNR there is no receiver-not-ready condition to
// wait out — the tail replays immediately. A SeqNak whose counter is not
// the (post-retirement) head is stale: a newer replay round already
// covered the loss. Each accepted SeqNak counts against Config.RetryCnt.
func (n *NIC) rxSeqNak(c fabric.AckInfo) {
	qp, ok := n.qps[c.QPN]
	if !ok {
		if n.everCrashed {
			n.crashDiscards++
			return
		}
		panic(fmt.Sprintf("nic%d: sequence NAK for unknown qp %d", n.id, c.QPN))
	}
	if qp.Errored {
		return
	}
	n.retireThrough(qp, c.Counter-1)
	if qp.txN == 0 || qp.txRing[qp.txHead].counter != c.Counter {
		return
	}
	qp.SeqNaksRecv++
	qp.retries++
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvSeqNakRx,
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(c.Counter))})
	}
	if n.cfg.RetryCnt >= 0 && qp.retries > n.cfg.RetryCnt {
		n.failQP(qp, mlx.CQERetryExc)
		return
	}
	if qp.awaitingRetry {
		// An RNR backoff already owns the tail; its replay covers this
		// loss too.
		return
	}
	qp.ackWait = n.k.Now()
	n.replayTail(qp)
}

// retransmit is the RNR backoff-timer continuation: it replays every
// outstanding WQE from the NAKed head onwards (go-back-N — the target
// discarded everything behind the refused frame), in order, through the
// normal transmission path.
func (n *NIC) retransmit(qp *QP) {
	if qp.Errored {
		return
	}
	qp.awaitingRetry = false
	qp.RnrRetransmits++
	qp.ackWait = n.k.Now()
	n.replayTail(qp)
}

// replayTail replays every outstanding ring record in order, the shared
// go-back-N tail of all three recovery paths (RNR backoff expiry, sequence
// NAK, ACK timeout).
func (n *NIC) replayTail(qp *QP) {
	if n.tr != nil {
		// One retransmission decision per recovery round (RNR backoff
		// expiry, sequence NAK, ACK timeout); it also closes the open
		// backoff window in the attribution.
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvRetx,
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(qp.txN))})
	}
	for i := 0; i < qp.txN; i++ {
		qp.Retransmits++
		n.txRecFrame(qp, &qp.txRing[(qp.txHead+i)%len(qp.txRing)])
	}
}

// armAckTimer lazily schedules the QP's single ACK-timeout event. The
// timer is deliberately approximate: it fires a full timeout after arming
// and re-arms for the remainder if the QP made progress meanwhile, so the
// steady-state cost is one pooled event per timeout window — not one per
// WQE — and zero with AckTimeout disabled.
func (n *NIC) armAckTimer(qp *QP) {
	if n.cfg.AckTimeout == 0 || qp.ackArmed || qp.Errored {
		return
	}
	qp.ackArmed = true
	qp.ackEv = n.k.AfterArg(n.cfg.AckTimeout, n.ackTimeoutFn, qp)
}

// effTimeout is the QP's current effective ACK timeout: the configured
// base doubling per consecutive unanswered timeout, capped at
// AckTimeoutMax.
func (n *NIC) effTimeout(qp *QP) units.Time {
	eff := n.cfg.AckTimeout << uint(qp.tmoStreak)
	if eff > n.cfg.AckTimeoutMax || eff <= 0 {
		eff = n.cfg.AckTimeoutMax
	}
	return eff
}

// ackTimeout is the ACK-timeout continuation. The QP timed out when its
// last transport progress (ackWait) is at least one effective timeout ago
// with WQEs still outstanding: the unacked tail — or every acknowledgement
// for it — was lost, so replay the tail (go-back-N; the target's PSN check
// suppresses any duplicates this creates) and charge a retry. Exhausting
// Config.RetryCnt fails the QP with mlx.CQERetryExc. A QP sitting in an
// RNR backoff is not timed out — the backoff owns the tail — but the timer
// keeps watching in case the NAKed replay itself is lost.
func (n *NIC) ackTimeout(qp *QP) {
	qp.ackArmed = false
	if qp.Errored || qp.txN == 0 {
		return
	}
	eff := n.effTimeout(qp)
	if deadline := qp.ackWait + eff; n.k.Now() < deadline {
		qp.ackArmed = true
		qp.ackEv = n.k.AtArg(deadline, n.ackTimeoutFn, qp)
		return
	}
	if qp.awaitingRetry {
		qp.ackArmed = true
		qp.ackEv = n.k.AfterArg(eff, n.ackTimeoutFn, qp)
		return
	}
	qp.AckTimeouts++
	qp.retries++
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvAckTimeout,
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(eff))})
	}
	if n.cfg.RetryCnt >= 0 && qp.retries > n.cfg.RetryCnt {
		n.failQP(qp, mlx.CQERetryExc)
		return
	}
	if qp.tmoStreak < 16 {
		qp.tmoStreak++
	}
	qp.ackWait = n.k.Now()
	n.replayTail(qp)
	qp.ackArmed = true
	qp.ackEv = n.k.AfterArg(n.effTimeout(qp), n.ackTimeoutFn, qp)
}

// cancelQPTimers cancels the QP's pooled recovery timers — the armed ACK
// timeout and any in-flight RNR backoff. Timer hygiene on QP death: a dead
// timer must never fire on a failed QP (the continuations do guard Errored,
// but a cancelled event also stops pinning the simulation end-time a
// timeout into the future).
func (n *NIC) cancelQPTimers(qp *QP) {
	if qp.ackArmed {
		qp.ackArmed = false
		qp.ackEv.Cancel()
	}
	if qp.awaitingRetry {
		qp.awaitingRetry = false
		qp.rnrEv.Cancel()
	}
}

// failQP gives up on a QP whose retry budget is exhausted: one error CQE
// (status mlx.CQERnrRetryExc for RNR exhaustion, mlx.CQERetryExc for
// transport-retry exhaustion) carrying the newest outstanding counter
// retires the entire outstanding tail as failed — errors always complete,
// signaled or not — and the QP stops transmitting. Pending recovery timers
// are cancelled. WQEs posted afterwards are flushed with CQEFlushErr
// completions (see execWQE).
func (n *NIC) failQP(qp *QP, status uint8) {
	qp.Errored = true
	qp.QPFails++
	qp.RetryExhausted++
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvFlush,
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(qp.txN))})
	}
	n.cancelQPTimers(qp)
	last := qp.txRing[(qp.txHead+qp.txN-1)%len(qp.txRing)]
	qp.txN = 0
	n.writeSendCQE(qp, last.counter, status)
}

// ---------- endpoint failure model ----------

// Dead reports whether the NIC is currently crashed.
func (n *NIC) Dead() bool { return n.dead }

// Crash takes the NIC dark: every QP enters the error state — outstanding
// WQEs retire with one fatal error CQE, posted receives flush with error
// recv CQEs, recovery timers are cancelled — and from this moment inbound
// frames are discarded and nothing transmits. Local software observes the
// death through the error completions (the driver's async-event path
// synthesizes them straight into host memory; the dead device issues no
// PCIe traffic); remote peers observe silence and fail their own QPs
// through the ACK-timeout → retry-exhaustion path. Crashing a dead NIC is
// a no-op.
func (n *NIC) Crash() {
	if n.dead {
		return
	}
	n.dead = true
	n.everCrashed = true
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvCrash, Node: int16(n.id)})
	}
	for _, qp := range n.qps {
		n.crashQP(qp)
	}
}

// Restart brings a crashed NIC back up with its QP table wiped: the dead
// generation's counters fold into the retired accumulator, frames still in
// flight toward wiped QPNs discard on arrival, and recovery requires
// fresh-epoch QPs (CreateQP/Connect again — QPNs and BAR windows never
// reuse, so no stale frame can alias a new QP).
func (n *NIC) Restart() {
	if !n.dead {
		return
	}
	for _, qp := range n.qps {
		n.retired.addQP(qp)
	}
	n.qps = make(map[uint32]*QP)
	n.dead = false
}

// crashQP is the local-death path for one QP: error state, cancelled
// timers, a fatal error CQE for any outstanding tail, and flush CQEs for
// every posted receive. CQEs are written synchronously to host memory —
// this is the driver reacting to the device loss, not the device.
func (n *NIC) crashQP(qp *QP) {
	if !qp.Errored {
		qp.Errored = true
		qp.QPFails++
		n.cancelQPTimers(qp)
		if qp.txN > 0 {
			last := qp.txRing[(qp.txHead+qp.txN-1)%len(qp.txRing)]
			qp.txN = 0
			n.hostWriteSendCQE(qp, last.counter, mlx.CQEFatalErr)
		}
	} else {
		n.cancelQPTimers(qp)
	}
	if !qp.fetching {
		// Descriptors rung but not yet fetched would otherwise never
		// complete: no further doorbell is coming once software sees the
		// error. With a fetch in flight the flush instead happens from the
		// completion's dead guard, keeping flush CQEs in counter order.
		qp.flushRungWQEs()
	}
	for qp.recvPosted > 0 {
		qp.recvPosted--
		qp.rqAddrs = qp.rqAddrs[1:]
		qp.FlushedRecvs++
		n.hostWriteRecvFlushCQE(qp)
	}
	if len(qp.rqAddrs) == 0 {
		qp.rqAddrs = nil
	}
}

// hostWriteSendCQE writes a request completion straight into host memory,
// bypassing the (dead) device's PCIe path.
func (n *NIC) hostWriteSendCQE(qp *QP, counter uint16, status uint8) {
	cqe := mlx.CQE{
		Op:         mlx.CQEReq,
		WQECounter: counter,
		QPN:        qp.QPN,
		Status:     status,
		Gen:        qp.SendCQ.Gen(qp.sendCQPI),
	}
	enc, err := cqe.Encode()
	if err != nil {
		panic(fmt.Sprintf("nic%d: CQE encode: %v", n.id, err))
	}
	n.mem.Write(qp.SendCQ.EntryAddr(qp.sendCQPI), enc[:])
	qp.sendCQPI++
	qp.CQEsWritten++
}

// hostWriteRecvFlushCQE writes one flushed-receive error completion
// straight into host memory.
func (n *NIC) hostWriteRecvFlushCQE(qp *QP) {
	cqe := mlx.CQE{
		Op:         mlx.CQERecv,
		WQECounter: qp.recvCQPI,
		QPN:        qp.QPN,
		Status:     mlx.CQEFlushErr,
		Gen:        qp.RecvCQ.Gen(qp.recvCQPI),
	}
	enc, err := cqe.Encode()
	if err != nil {
		panic(fmt.Sprintf("nic%d: CQE encode: %v", n.id, err))
	}
	n.mem.Write(qp.RecvCQ.EntryAddr(qp.recvCQPI), enc[:])
	qp.recvCQPI++
	qp.CQEsWritten++
}
