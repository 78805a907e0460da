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
// protocol). The initiator backs off exponentially (2 us doubling to a
// 32 us cap), replays its whole outstanding tail from the per-QP
// retransmit queue, and — once consecutive NAKs for the same WQE exceed
// RnrRetryLimit — fails the QP with an error CQE (mlx.CQERnrRetryExc) that
// retires every outstanding WQE as undelivered. The retry budgets are IB's
// fixed per-QP policy, package constants (RnrRetryLimit, RetryCnt) rather
// than Config fields.
// With RxBudget zero there is no buffering NAK — held frames are bounded
// only by the fabric's link credits — but a send arriving with no receive
// posted is still RNR-NAKed and retried (that case used to drop silently
// into an RNRDrops counter, stalling the sender forever). See
// ARCHITECTURE.md for how this composes with the PCIe and topology credit
// loops.
//
// # One copy of each payload
//
// A message's bytes are copied once on the device: where the NIC first
// holds them — out of the gather DMA read's CplD, or out of the inline
// descriptor, whether BlueFlame wrote it or a DMA fetch read it — into one
// pooled, reference-counted buffer per WQE (arena.Buf, from the network's
// pool). Every later holder shares that buffer instead of copying it: the
// retransmit queue's record, every frame that carries the WQE (the first
// transmission and each go-back-N replay), and on the target the MWr TLPs
// that write the payload to host memory. Each holder drops its reference
// exactly once — the record's retirement or the queue's wipe on QP
// failure, frame release, TLP release after the Root Complex's commit —
// and the buffer returns to the pool at zero. The only other copies are
// the modelled ones: the Root Complex's DMA read and its commit into
// simulated memory, and the CQE image that inline-scatters a small send.
//
// The device datapath is allocation-free in steady state: TLPs, frames and
// payload buffers come from the link/network pools (the NIC releases
// everything delivered to it, per the pcie/fabric borrow contracts),
// DMA-read completions dispatch through typed continuation records instead
// of closures (with reads past the 256-tag space queued FIFO rather than
// failing), and descriptors decode into per-QP scratch WQEs that borrow
// their bytes. The overload path recycles too: NAK frames and backoff timer
// events are pooled, the retransmit queue and the pend-mirror FIFO reuse
// their arrays, so NAK/retry stays inside the same allocation budget as the
// uncontended path (enforced by internal/simbench).
package nic

import (
	"encoding/binary"
	"fmt"

	"breakband/internal/arena"
	"breakband/internal/fabric"
	"breakband/internal/fifo"
	"breakband/internal/memsim"
	"breakband/internal/mlx"
	"breakband/internal/pcie"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/trace"
	"breakband/internal/units"
)

// Config parameterizes the device: the two values a run chooses. The retry
// policy is fixed (see RnrRetryLimit and RetryCnt).
type Config struct {
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

	// AckTimeout is the per-QP local ACK-timeout: how long the initiator
	// waits without transport progress before assuming its unacked tail
	// (or the ACKs for it) was lost and replaying it. Consecutive
	// unanswered timeouts double the wait up to ackTimeoutCap times
	// AckTimeout, and each counts against RetryCnt. Zero disables the
	// timer entirely — the lossless-fabric default: no timer events are
	// ever scheduled and behaviour is identical to the pre-reliability NIC.
	AckTimeout units.Time
}

// The RC retry policy: IB's fixed per-QP budgets, the same on every QP.
const (
	// RnrRetryLimit is how many RNR retransmit rounds a QP may spend on
	// the same head-of-queue WQE (IB's rnr_retry=7); one more RNR NAK
	// fails the QP with an error CQE (mlx.CQERnrRetryExc) retiring the
	// whole outstanding tail. The count resets whenever an ACK makes
	// forward progress.
	RnrRetryLimit = 7
	// RetryCnt is how many transport retries (ACK timeouts plus sequence
	// NAKs) a QP may spend on the same head WQE (IB's retry_cnt=7); one
	// more fails the QP with mlx.CQERetryExc. Resets on forward progress.
	RetryCnt = 7

	// rnrBackoff is the sender-side backoff after the first RNR NAK for a
	// WQE (~2 us: the smallest nonzero IB RNR NAK timer class is in that
	// range); each consecutive NAK doubles it up to rnrBackoffMax.
	rnrBackoff    = 2 * units.Microsecond
	rnrBackoffMax = 32 * units.Microsecond
	// ackTimeoutCap caps the doubling ACK timeout at this multiple of
	// Config.AckTimeout.
	ackTimeoutCap = 16
)

// DefaultAckTimeout is the ACK-timeout base a lossy-fabric run should start
// from (internal/node applies it when fault injection is on): comfortably
// above a healthy round trip, far below a human-visible stall. Note the
// zero Config value means disabled, not this default.
const DefaultAckTimeout = 100 * units.Microsecond

// A QP's BAR window: the device-memory span reserved per QP and the
// register offsets inside it.
const (
	barStride = 0x1000
	dbOffset  = 0x000 // 8-byte DoorBell register
	bfOffset  = 0x100 // 64-byte BlueFlame PIO buffer
)

// txRec tracks an executed, not-yet-acknowledged WQE. It doubles as the
// retransmission record: op and payload are everything needed to rebuild
// the frame when an RNR NAK forces a go-back-N replay (real hardware
// re-reads the WQE from the send queue; the model keeps the equivalent
// state in the QP's retransmit queue so the PIO path — whose descriptors
// never touch host memory — replays identically). payload is the record's
// reference to the WQE's pooled buffer, dropped when the record retires or
// the queue is wiped; a frame still in flight keeps its own reference.
type txRec struct {
	counter  uint16
	signaled bool
	op       fabric.TxOp
	payload  arena.Buf
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
	// tx is the retransmit queue: the executed, awaiting-ACK WQEs in
	// order, tx.At(0) the oldest. Software cannot keep more than the send
	// queue's depth in flight.
	tx fifo.Queue[txRec]

	sendCQPI   uint16 // producer counter of SendCQ
	recvCQPI   uint16 // producer counter of RecvCQ
	recvPosted int    // receive credits posted by software
	rqAddrs    fifo.Queue[uint64]

	// Initiator-side RNR state: awaitingRetry is set between an RNR NAK
	// and its backoff timer firing (new WQEs executed meanwhile are parked
	// in tx and ride the replay); rnrEv is the pooled backoff event
	// so QP death can cancel it; rnrRetries counts consecutive NAKs for
	// the current head WQE and resets on any ACK.
	awaitingRetry bool
	rnrEv         sim.EventRef
	rnrRetries    int
	// Initiator-side loss-recovery state (all dormant with AckTimeout
	// zero): retries counts transport retries — ACK timeouts plus sequence
	// NAKs — charged against RetryCnt, resetting on progress.
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

	// qps is the QP table: every QP the NIC ever created, indexed by its
	// QPN. QPNs never reuse, and a QP's BAR window is the QPN-th, so MMIO
	// finds its QP by index too. live is the first QPN of the current
	// generation: Restart moves it past every QP created so far, and a
	// frame addressed below it is stale traffic for a wiped QP.
	qps  []*QP
	live uint32

	// Endpoint-failure state. dead marks a crashed NIC (inbound frames
	// discard, WQEs flush, nothing transmits); crashDiscards counts frames
	// discarded because the NIC was dark (or addressed a wiped QP).
	dead          bool
	crashDiscards uint64

	// DMA-read engine: typed continuations indexed by PCIe tag, plus the
	// FIFO of reads blocked on tag exhaustion.
	nextTag       uint8
	inflight      [256]dmaCont
	inflightReads int
	dmaPending    fifo.Queue[dmaReq]

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
	upPendQ   fifo.Queue[*fabric.Frame]

	// Continuations, bound once so the RNR backoff / ACK-timeout timers
	// schedule without closures.
	retransmitFn func(any)
	ackTimeoutFn func(any)
}

var (
	_ pcie.Receiver = (*NIC)(nil)
	_ fabric.Port   = (*NIC)(nil)
)

// New creates a NIC with the given fabric identity, attaching it to the PCIe
// link's endpoint side and to the network, a compiled internal/topo fabric.
func New(k *sim.Kernel, id int, mem *memsim.Memory, link *pcie.Link, net *topo.Fabric, cfg Config) *NIC {
	n := &NIC{
		k: k, id: id, mem: mem, link: link, net: net, cfg: cfg, tr: k.Tracer(),
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

// Stats sums the transport counters of every QP the NIC created
// (including QP generations wiped by a crash-restart) plus the NIC-level
// crash discards.
func (n *NIC) Stats() Stats {
	var s Stats
	for _, qp := range n.qps {
		s.addQP(qp)
	}
	s.CrashDiscards = n.crashDiscards
	return s
}

// QPs returns the live queue pairs in QPN order — the per-QP breakdown of
// the transport counters the aggregate Stats sums. Generations wiped by a
// crash-restart are only visible in the aggregate. The slice is the NIC's
// own table, capped so an append copies it.
func (n *NIC) QPs() []*QP {
	return n.qps[n.live:len(n.qps):len(n.qps)]
}

// liveQP returns the live QP qpn names, or nil, counted in CrashDiscards,
// when qpn belongs to a generation a restart wiped: stale traffic from
// before the crash, which the caller discards. what names the frame kind
// for the panic on a QPN the NIC never created.
func (n *NIC) liveQP(qpn uint32, what string) *QP {
	if int(qpn) >= len(n.qps) {
		panic(fmt.Sprintf("nic%d: %s for unknown qp %d", n.id, what, qpn))
	}
	if qpn < n.live {
		n.crashDiscards++
		return nil
	}
	return n.qps[qpn]
}

// QPBytes reports the host memory CreateQP reserves for one queue pair:
// the doorbell record, padded to the rings' 64-byte alignment, the send
// queue ring, the send completion ring of the same depth and the receive
// completion ring of rqDepth entries.
func QPBytes(sqDepth, rqDepth int) uint64 {
	return 64 + uint64(sqDepth)*(mlx.WQESize+mlx.CQESize) + uint64(rqDepth)*mlx.CQESize
}

// CreateQP allocates a queue pair with the given ring depths (powers of
// two). Ring memory and the doorbell record are allocated from host memory;
// the DoorBell and BlueFlame registers from the device BAR.
//
// Each completion ring is as deep as the completions that can be
// outstanding in it. Every send CQE retires at least one WQE, error and
// flush CQEs included, and software frees a send-queue entry only when it
// polls the CQE that retires it, so the send CQ takes the send queue's
// depth. Every receive CQE, flushes included, consumes one receive credit,
// so the receive CQ takes rqDepth, the most credits software holds posted
// or consumed but unpolled. A CQE written past either bound would
// overwrite one software has not polled yet.
func (n *NIC) CreateQP(sqDepth, rqDepth int) *QP {
	qpn := uint32(len(n.qps))
	base := pcie.BARBase + uint64(qpn)*barStride

	dbr := n.mem.Alloc(fmt.Sprintf("nic%d.qp%d.dbr", n.id, qpn), 8, 8)
	qp := &QP{
		nic:     n,
		QPN:     qpn,
		SQ:      mlx.NewRing(n.mem, fmt.Sprintf("nic%d.qp%d.sq", n.id, qpn), sqDepth, mlx.WQESize),
		SendCQ:  mlx.NewRing(n.mem, fmt.Sprintf("nic%d.qp%d.scq", n.id, qpn), sqDepth, mlx.CQESize),
		RecvCQ:  mlx.NewRing(n.mem, fmt.Sprintf("nic%d.qp%d.rcq", n.id, qpn), rqDepth, mlx.CQESize),
		DBRAddr: dbr.Base,
		DBAddr:  base + dbOffset,
		BFAddr:  base + bfOffset,
	}
	n.qps = append(n.qps, qp)
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
	qp.rqAddrs.Push(addr)
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
		for n.inflightReads < len(n.inflight) && n.dmaPending.Len() > 0 {
			rq := n.dmaPending.Pop()
			n.issueDMARead(rq.addr, rq.n, rq.kind, rq.qp)
		}
	default:
		panic(fmt.Sprintf("nic%d: unexpected downstream %v", n.id, t.Type))
	}
	t.Release()
}

// rxMMIO decodes a device-memory write: an 8-byte DoorBell ring or a 64-byte
// BlueFlame PIO descriptor. Every QP keeps its BAR window, so a write to a
// QP a restart wiped reaches it and flushes on its error state.
func (n *NIC) rxMMIO(t *pcie.TLP) {
	qpn := (t.Addr - pcie.BARBase) / barStride
	if t.Addr < pcie.BARBase || qpn >= uint64(len(n.qps)) {
		panic(fmt.Sprintf("nic%d: MWr to unmapped BAR %#x", n.id, t.Addr))
	}
	qp := n.qps[qpn]
	base := pcie.BARBase + qpn*barStride
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
	n.upPendQ.Push(f)
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
	if n.upPendQ.Len() == 0 {
		panic("nic: pend FIFO underflow (issue notification without a pended TLP)")
	}
	f := n.upPendQ.Pop()
	if f == nil {
		return
	}
	f.RxPendWrites--
	if f.RxPendWrites == 0 {
		n.rxHeld--
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
	if n.inflightReads == len(n.inflight) || n.dmaPending.Len() > 0 {
		n.dmaPending.Push(dmaReq{addr: addr, n: ln, kind: kind, qp: qp})
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
		qp.nic.writeSendCQE(qp, qp.fetchNext, mlx.CQEFlushErr)
		qp.fetchNext++
	}
}

// fetchNextWQE starts the next descriptor fetch if none is in flight. The
// drain is iterative: each completion event (onWQEFetched/onPayloadFetched)
// executes the descriptor and calls back here to issue the next read, so a
// deep doorbell batch costs constant stack regardless of depth. On a dead
// NIC it flushes the rung descriptors instead, but only once no fetch is
// in flight: the fetch's completion flushes its own descriptor first, so
// the flush CQEs keep counter order.
func (qp *QP) fetchNextWQE() {
	if qp.fetching || qp.fetchNext == qp.doorbellPI {
		return
	}
	if qp.nic.dead {
		qp.flushRungWQEs()
		return
	}
	qp.fetching = true
	qp.fetchCounter = qp.fetchNext
	qp.fetchNext++
	qp.nic.dmaRead(qp.SQ.EntryAddr(qp.fetchCounter), mlx.WQESize, dmaWQEFetch, qp)
}

// onWQEFetched continues the fetch chain when the descriptor CplD arrives.
// data is borrowed from the delivered TLP, and so is the inline payload
// DecodeFrom leaves in the WQE: execWQE consumes it before the TLP is
// released.
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
		qp.nic.writeSendCQE(qp, qp.fetchCounter, mlx.CQEFlushErr)
		qp.fetching = false
		qp.flushRungWQEs()
		return
	}
	// Second round trip: fetch the payload from registered memory.
	qp.nic.dmaRead(qp.fetchWQE.GatherAddr, int(qp.fetchWQE.GatherLen), dmaPayloadFetch, qp)
}

// onPayloadFetched completes a gather descriptor: the scratch WQE borrows
// the CplD data as its payload, and execWQE copies it out into the WQE's
// pooled buffer before the TLP is released.
func (qp *QP) onPayloadFetched(data []byte) {
	qp.fetchWQE.Payload = data
	qp.nic.execWQE(qp, &qp.fetchWQE)
	qp.fetching = false
	qp.fetchNextWQE()
}

// execWQE records a decoded descriptor in the retransmit queue and transmits
// it onto the fabric. The WQE (often a scratch) is consumed synchronously:
// its payload, borrowed from the CplD or the inline descriptor, is copied
// once into a pooled buffer the queue's record holds, and every frame
// carrying the WQE shares it. While the QP is waiting out an RNR backoff
// the frame is not transmitted: the record rides the go-back-N replay
// instead.
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
		n.writeSendCQE(qp, w.WQEIdx, mlx.CQEFlushErr)
		return
	}
	if qp.tx.Len() == qp.SQ.Depth {
		panic(fmt.Sprintf("nic%d: qp %d retransmit queue overflow (%d WQEs unacknowledged)", n.id, qp.QPN, qp.tx.Len()))
	}
	rec := txRec{
		counter:  w.WQEIdx,
		signaled: w.Signaled,
		op: fabric.TxOp{
			Opcode:  uint8(w.Opcode),
			SrcQPN:  qp.QPN,
			DstQPN:  qp.remoteQPN,
			RAddr:   w.RemoteAddr,
			AmID:    w.AmID,
			Counter: w.WQEIdx,
		},
		payload: n.net.Payloads().Fill(w.Payload),
	}
	qp.tx.Push(rec)
	qp.TxFrames++
	if n.cfg.AckTimeout > 0 {
		if qp.tx.Len() == 1 {
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

// txRecFrame builds the wire frame for a retransmit record and transmits it
// (the shared tail of first transmission and RNR replay). The frame carries
// the record's payload buffer under its own reference.
func (n *NIC) txRecFrame(qp *QP, rec txRec) {
	f := n.net.NewFrame()
	f.Kind = fabric.Data
	f.Src = n.id
	f.Dst = qp.remoteNIC
	f.AttachPayload(rec.payload)
	f.Bytes = len(f.Payload())
	f.Op = rec.op
	f.PSN = rec.counter
	if n.tr != nil {
		f.TID = n.tr.NextTID()
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvInject, TID: f.TID,
			Node: int16(n.id), Arg: trace.ArgMsg(qp.QPN, f.Bytes, uint32(rec.counter))})
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
// the frame is held for deferred release. The MWr TLPs that write the
// payload to host memory carry the frame's shared buffer under their own
// references; only a small send's CQE image copies the payload, by
// inline-scattering it.
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
	qp := n.liveQP(op.DstQPN, "data frame")
	if qp == nil {
		n.traceDrop(f)
		return false
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
	if (n.cfg.RxBudget > 0 && n.rxHeld >= n.cfg.RxBudget) || (needsRecv && qp.recvPosted == 0) {
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
		t.AttachData(f.PayloadBuf())
		n.sendUp(t, f)
	case mlx.OpSend:
		qp.recvPosted--
		bufAddr := qp.rqAddrs.Pop()
		inline := len(payload) <= mlx.ScatterMax
		cqe := mlx.CQE{
			Op:         mlx.CQERecv,
			WQECounter: qp.recvCQPI,
			ByteCnt:    uint32(len(payload)),
			AmID:       op.AmID,
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
			t.AttachData(f.PayloadBuf())
			n.sendUp(t, f)
		}
		n.writeCQE(qp, &qp.RecvCQ, &qp.recvCQPI, cqe, f)
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
// the refused counter is retransmitted.
func (n *NIC) refuse(qp *QP, f *fabric.Frame) {
	qp.RNRNaksSent++
	if n.tr != nil && f.TID != 0 {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvRefuse, TID: f.TID,
			Node: int16(n.id), Arg: trace.ArgMsg(f.Op.SrcQPN, 0, uint32(f.PSN))})
	}
	qp.rxRecovery = true
	qp.rxResume = f.Op.Counter
	nak := n.net.AckFor(f, fabric.AckInfo{QPN: f.Op.SrcQPN, Counter: f.Op.Counter})
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
	qp := n.liveQP(c.QPN, "ACK")
	if qp == nil || qp.Errored {
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
	for qp.tx.Len() > 0 && int16(counter-qp.tx.At(0).counter) >= 0 {
		rec := qp.tx.Pop()
		rec.payload.Drop()
		retired++
		if rec.signaled {
			n.writeSendCQE(qp, rec.counter, mlx.CQEOK)
		}
	}
	if qp.ackArmed && qp.tx.Len() == 0 {
		// The whole tail is acknowledged: nothing is left for the timer
		// to watch, so cancel it rather than let a dead no-op event pin
		// the simulation end-time a timeout into the future.
		qp.ackArmed = false
		qp.ackEv.Cancel()
	}
	return retired
}

// writeSendCQE writes a request completion with the given status to the
// QP's send CQ.
func (n *NIC) writeSendCQE(qp *QP, counter uint16, status uint8) {
	n.writeCQE(qp, &qp.SendCQ, &qp.sendCQPI, mlx.CQE{Op: mlx.CQEReq, WQECounter: counter, Status: status}, nil)
}

// writeCQE writes cqe, stamped with the QP and the slot's generation, into
// ring's slot for the producer counter *pi and advances it. A live NIC
// DMA-writes it up its PCIe link, held against the inbound frame f when f
// is not nil; a dead one's driver writes it straight into host memory,
// with no PCIe traffic and no EvCQE.
func (n *NIC) writeCQE(qp *QP, ring *mlx.Ring, pi *uint16, cqe mlx.CQE, f *fabric.Frame) {
	cqe.QPN = qp.QPN
	cqe.Gen = ring.Gen(*pi)
	enc, err := cqe.Encode()
	if err != nil {
		panic(fmt.Sprintf("nic%d: CQE encode: %v", n.id, err))
	}
	addr := ring.EntryAddr(*pi)
	*pi++
	qp.CQEsWritten++
	if n.dead {
		n.mem.Write(addr, enc[:])
		return
	}
	t := n.link.NewTLP()
	t.Type = pcie.MWr
	t.Addr = addr
	t.SetData(enc[:])
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvCQE,
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(cqe.WQECounter))})
	}
	n.sendUp(t, f)
}

// rxNak handles an RNR NAK on the initiator NIC. On a lossless fabric the
// refused WQE is always the head of the retransmit queue (the transport is
// strictly ordered and the target NAKs at most once per replay round); a
// NAK implicitly acknowledges everything before the refused counter, and
// one whose counter is no longer the head — its replay round was
// superseded while the NAK travelled — is stale and ignored. The QP backs
// off exponentially before replaying the whole outstanding tail: 2 us,
// doubling per consecutive NAK up to 32 us. When consecutive NAKs for the
// same WQE exceed RnrRetryLimit the QP fails with an error CQE instead.
func (n *NIC) rxNak(c fabric.AckInfo) {
	qp := n.liveQP(c.QPN, "RNR NAK")
	if qp == nil || qp.Errored {
		return
	}
	n.retireThrough(qp, c.Counter-1)
	if qp.tx.Len() == 0 || qp.tx.At(0).counter != c.Counter {
		return
	}
	qp.RNRNaksRecv++
	qp.rnrRetries++
	if qp.rnrRetries > RnrRetryLimit {
		n.failQP(qp, mlx.CQERnrRetryExc)
		return
	}
	// rnrRetries is at most RnrRetryLimit here, so the shift cannot
	// overflow.
	backoff := min(rnrBackoff<<(qp.rnrRetries-1), rnrBackoffMax)
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
// covered the loss. Each accepted SeqNak counts against RetryCnt.
func (n *NIC) rxSeqNak(c fabric.AckInfo) {
	qp := n.liveQP(c.QPN, "sequence NAK")
	if qp == nil || qp.Errored {
		return
	}
	n.retireThrough(qp, c.Counter-1)
	if qp.tx.Len() == 0 || qp.tx.At(0).counter != c.Counter {
		return
	}
	qp.SeqNaksRecv++
	qp.retries++
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvSeqNakRx,
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(c.Counter))})
	}
	if qp.retries > RetryCnt {
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

// replayTail replays every outstanding retransmit record in order, the shared
// go-back-N tail of all three recovery paths (RNR backoff expiry, sequence
// NAK, ACK timeout).
func (n *NIC) replayTail(qp *QP) {
	if n.tr != nil {
		// One retransmission decision per recovery round (RNR backoff
		// expiry, sequence NAK, ACK timeout); it also closes the open
		// backoff window in the attribution.
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvRetx,
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(qp.tx.Len()))})
	}
	for i := 0; i < qp.tx.Len(); i++ {
		qp.Retransmits++
		n.txRecFrame(qp, qp.tx.At(i))
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
// ackTimeoutCap times the base.
func (n *NIC) effTimeout(qp *QP) units.Time {
	limit := ackTimeoutCap * n.cfg.AckTimeout
	eff := n.cfg.AckTimeout << uint(qp.tmoStreak)
	if eff > limit || eff <= 0 {
		eff = limit
	}
	return eff
}

// ackTimeout is the ACK-timeout continuation. The QP timed out when its
// last transport progress (ackWait) is at least one effective timeout ago
// with WQEs still outstanding: the unacked tail — or every acknowledgement
// for it — was lost, so replay the tail (go-back-N; the target's PSN check
// suppresses any duplicates this creates) and charge a retry. Exhausting
// RetryCnt fails the QP with mlx.CQERetryExc. A QP sitting in an
// RNR backoff is not timed out — the backoff owns the tail — but the timer
// keeps watching in case the NAKed replay itself is lost.
func (n *NIC) ackTimeout(qp *QP) {
	qp.ackArmed = false
	if qp.Errored || qp.tx.Len() == 0 {
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
	if qp.retries > RetryCnt {
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
			Node: int16(n.id), Arg: trace.ArgQP(qp.QPN, uint64(qp.tx.Len()))})
	}
	n.cancelQPTimers(qp)
	n.writeSendCQE(qp, wipeTx(qp), status)
}

// wipeTx empties the QP's retransmit queue on failure, dropping every
// outstanding record's payload reference, and reports the newest counter.
func wipeTx(qp *QP) (last uint16) {
	for qp.tx.Len() > 0 {
		rec := qp.tx.Pop()
		last = rec.counter
		rec.payload.Drop()
	}
	return last
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
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.k.Now(), Kind: trace.EvCrash, Node: int16(n.id)})
	}
	for _, qp := range n.QPs() {
		n.crashQP(qp)
	}
}

// Restart brings a crashed NIC back up with its live generation wiped:
// every QP created so far drops out of QPs, frames still in flight toward
// its QPNs discard on arrival, and recovery requires fresh-epoch QPs
// (CreateQP/Connect again — QPNs and BAR windows never reuse, so no stale
// frame can alias a new QP). A wiped QP keeps its counters in Stats and
// its BAR window: a post software still rings there flushes with
// CQEFlushErr on the QP's error state.
func (n *NIC) Restart() {
	if !n.dead {
		return
	}
	n.live = uint32(len(n.qps))
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
		if qp.tx.Len() > 0 {
			n.writeSendCQE(qp, wipeTx(qp), mlx.CQEFatalErr)
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
		qp.rqAddrs.Pop()
		qp.FlushedRecvs++
		n.writeCQE(qp, &qp.RecvCQ, &qp.recvCQPI, mlx.CQE{Op: mlx.CQERecv, WQECounter: qp.recvCQPI, Status: mlx.CQEFlushErr}, nil)
	}
}
