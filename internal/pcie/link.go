package pcie

import (
	"fmt"

	"breakband/internal/arena"
	"breakband/internal/fifo"
	"breakband/internal/sim"
	"breakband/internal/trace"
	"breakband/internal/units"
)

// The link is the paper's one Gen3 x16 port (§3), so everything but its
// one-way propagation, which NewLink takes, is a constant.
const (
	// perByte is the serialization cost per byte: 64 ps/B, ~15.75 GB/s.
	perByte units.Time = 64
	// TLPHeader is the per-TLP header and framing overhead in bytes.
	TLPHeader = 24
	// DLLPBytes is the on-wire size of a DLLP.
	DLLPBytes = 8
	// AckDelay is the receiver's turnaround before it sends a TLP's ACK
	// and, for a flow-controlled TLP, the UpdateFC returning its credits.
	AckDelay = 2 * units.Nanosecond
)

// The receiver-advertised credit pools, per direction. One posting core
// never exhausts them (the paper's observation) while a many-core burst
// can (ablation X3): a 4 KiB write takes every posted data credit, the
// 33rd small write finds no posted header and the 17th read no
// non-posted one.
const (
	postedHdrCredits    = 32
	postedDataCredits   = 256 // 16-byte units: 4 KiB
	nonPostedHdrCredits = 16
)

// SerTime reports how long n on-wire bytes occupy a direction's
// serializer.
func SerTime(n int) units.Time { return units.Time(n) * perByte }

// channel is one direction of the link.
type channel struct {
	link      *Link
	dir       Dir
	busyUntil units.Time
	seq       uint64
	// Sender-side credit view of the receiver's pools, indexed by
	// CreditKind.
	avail [2]Credits
	// pend holds TLPs blocked on credits, in order. pendPosted counts the
	// posted writes among them: per the PCIe ordering rules nothing may
	// pass a blocked posted write (producer-consumer ordering), while
	// posted writes and completions may pass blocked non-posted reads
	// (deadlock avoidance).
	pend       fifo.Queue[*TLP]
	pendPosted int
	// stalled parks every send unconditionally — the host-pause fault
	// model (the issue path is frozen; credits and ordering are evaluated
	// again when the channel resumes).
	stalled bool
	// On an untapped link, DLLP work that nothing reads yet is a kernel
	// reservation (sim.Kernel.Reserve), settled in order before the
	// channel next reads what it changes. fc holds the reserved UpdateFC
	// arrivals that return credits to this channel's sender: they settle
	// before send reads the credits, and become real events when a TLP
	// parks, since retryPending must then run at each arrival. So fc is
	// empty whenever a TLP is pended, and retryPending, which reads
	// credits only for pended TLPs, never needs to settle it. acks holds
	// the reserved ACKs of credit-free TLPs that take this channel's
	// serializer: they settle before its next transmit or DLLP send.
	fc   fifo.Queue[fcReturn]
	acks fifo.Queue[sim.Reservation]
	// stats
	sentTLP uint64
	blocked uint64
	maxPend int

	// Continuations, bound once at link construction so the steady-state
	// per-packet path schedules events without allocating closures.
	arriveTLPFn  func(any) // arrival: tap (Down only) + deliver
	tapTLPFn     func(any) // Up only: tap as the packet leaves the endpoint
	arriveDLLPFn func(any)
	tapDLLPFn    func(any) // Up only
	sendAckFn    func(any) // a delivered TLP's ACK, and its UpdateFC
}

// fcReturn is a reserved UpdateFC arrival: the credits it returns and
// where in the event order it lands.
type fcReturn struct {
	r      sim.Reservation
	kind   CreditKind
	credit Credits
}

// Link is the full-duplex RC<->endpoint link.
type Link struct {
	k    *sim.Kernel
	prop units.Time // one-way propagation (slot, retimers, PHY)
	down *channel   // RC -> endpoint
	up   *channel   // endpoint -> RC
	// receivers
	rcSide Receiver // handles Up TLPs (the Root Complex)
	epSide Receiver // handles Down TLPs (the NIC)
	// tap is the passive observer just before the endpoint, nil when none
	// is attached. An untapped link fires no event that exists only to feed
	// it: no departure event for an upstream packet, and no arrival for a
	// DLLP whose arrival changes no state (an ACK). It also reserves the
	// DLLP work that nothing reads yet (channel.fc and channel.acks).
	tap Tap
	// onUpIssued, when set, observes each previously credit-blocked
	// upstream TLP at the moment it finally transmits, in pend-FIFO order.
	// The endpoint uses it to defer resource hand-back (fabric frame
	// release) until its host-memory write has actually been issued.
	onUpIssued func(*TLP)
	// tr is the kernel tracer (nil when tracing is disabled); trNode is the
	// owning node's identity, set by the system builder, so upstream
	// pend/issue events localize PCIe pressure to a host.
	tr     *trace.Tracer
	trNode int16

	// Packet pools; see the package borrow contract.
	tlps  *arena.Arena[TLP]
	dllps *arena.Arena[DLLP]
}

// NewLink builds a link whose packets fly prop one way; attach receivers
// with SetRCSide/SetEndpointSide before sending.
func NewLink(k *sim.Kernel, prop units.Time) *Link {
	l := &Link{k: k, prop: prop, tlps: newTLPArena(), dllps: newDLLPArena(), tr: k.Tracer()}
	pools := [2]Credits{
		Posted:    {Hdr: postedHdrCredits, Data: postedDataCredits},
		NonPosted: {Hdr: nonPostedHdrCredits},
	}
	l.down = &channel{link: l, dir: Down, avail: pools}
	l.up = &channel{link: l, dir: Up, avail: pools}
	// The analyzer tap sits just before the endpoint, so the two
	// directions wire their continuations differently: downstream packets
	// pass the tap at arrival (folded into the arrive continuation);
	// upstream packets pass it at departure (a separate tap event, scheduled
	// only on a tapped link) and arrive untapped.
	down, up := l.down, l.up
	down.arriveTLPFn = func(a any) {
		t := a.(*TLP)
		if l.tap != nil {
			l.tap.ObserveTLP(l.k.Now(), Down, t)
		}
		down.deliver(t)
	}
	down.arriveDLLPFn = func(a any) {
		d := a.(*DLLP)
		if l.tap != nil {
			l.tap.ObserveDLLP(l.k.Now(), Down, d)
		}
		down.deliverDLLP(d)
		d.Release()
	}
	down.sendAckFn = func(a any) { down.sendAck(a.(*DLLP)) }
	up.tapTLPFn = func(a any) { l.tap.ObserveTLP(l.k.Now(), Up, a.(*TLP)) }
	up.tapDLLPFn = func(a any) { l.tap.ObserveDLLP(l.k.Now(), Up, a.(*DLLP)) }
	up.arriveTLPFn = func(a any) { up.deliver(a.(*TLP)) }
	up.arriveDLLPFn = func(a any) {
		d := a.(*DLLP)
		up.deliverDLLP(d)
		d.Release()
	}
	up.sendAckFn = func(a any) { up.sendAck(a.(*DLLP)) }
	return l
}

// NewTLP allocates a pooled TLP owned by the caller until it is handed to
// SendDown/SendUp. Fields are zeroed and Data is empty with its previous
// capacity retained.
func (l *Link) NewTLP() *TLP { return l.tlps.Alloc() }

// SetRCSide attaches the upstream receiver (the Root Complex).
func (l *Link) SetRCSide(r Receiver) { l.rcSide = r }

// SetEndpointSide attaches the downstream receiver (the NIC).
func (l *Link) SetEndpointSide(r Receiver) { l.epSide = r }

// SetTap attaches the link's one passive observer, positioned just before
// the endpoint, replacing any earlier one. Attach it before traffic flows:
// packets already in flight when it attaches may pass it unseen.
func (l *Link) SetTap(t Tap) { l.tap = t }

// SetTraceNode tags this link's trace events with the owning node's
// identity. The system builder calls it once at construction; without it
// (or with tracing disabled) pend/issue events carry node 0.
func (l *Link) SetTraceNode(node int) { l.trNode = int16(node) }

// SetOnUpIssued registers fn to be called each time a previously
// credit-blocked upstream TLP is popped from the pend queue and actually
// transmitted. Calls arrive strictly in pend-queue (FIFO) order, one per
// TLP whose SendUp returned false, so the endpoint can mirror the queue
// with its own bookkeeping.
func (l *Link) SetOnUpIssued(fn func(*TLP)) { l.onUpIssued = fn }

// SendDown transmits a TLP from the RC towards the endpoint.
func (l *Link) SendDown(t *TLP) { l.down.send(t) }

// SendUp transmits a TLP from the endpoint towards the RC. It reports
// whether the TLP was issued immediately: false means it is parked in the
// pend queue waiting for posted/non-posted credits, and the registered
// OnUpIssued hook will see it when it finally transmits.
func (l *Link) SendUp(t *TLP) bool { return l.up.send(t) }

// PauseUp freezes the endpoint→RC issue path: every subsequent SendUp parks
// in the pend queue (OnUpIssued fires when it finally transmits), and
// UpdateFC arrivals drain nothing until ResumeUp. This is the host-pause
// fault model — the NIC's host-memory writes stall exactly as they would
// under a GC pause or OS jitter window, so its bounded rx buffering fills
// and backpressure (RNR NAK) propagates to peers.
func (l *Link) PauseUp() { l.up.stalled = true }

// ResumeUp unfreezes the endpoint→RC issue path and drains whatever parked
// during the pause, in FIFO order under the usual credit/ordering rules.
func (l *Link) ResumeUp() {
	l.up.stalled = false
	l.up.retryPending()
}

// Blocked reports how many TLP sends stalled on credits, per direction.
func (l *Link) Blocked() (down, up uint64) { return l.down.blocked, l.up.blocked }

// Sent reports TLPs transmitted per direction.
func (l *Link) Sent() (down, up uint64) { return l.down.sentTLP, l.up.sentTLP }

// MaxPend reports the deepest credit-blocked pend queue each direction
// reached — the headline number for receiver-side overload: with the NIC's
// rx budget enabled the upstream value is bounded by that budget instead of
// growing with offered load.
func (l *Link) MaxPend() (down, up int) { return l.down.maxPend, l.up.maxPend }

// InUsePackets reports live TLP and DLLP pool slots — the pool-leak check:
// both must return to zero once the event queue has drained and every
// receiver has released what was delivered to it.
func (l *Link) InUsePackets() (tlps, dllps int) {
	return l.tlps.InUse(), l.dllps.InUse()
}

// send enqueues t for transmission, blocking it on credits — or on
// ordering — if necessary. It reports whether the TLP was issued
// immediately (false: parked in the pend queue). Ordering follows the
// PCIe transaction ordering rules: no TLP may pass a blocked posted
// write, non-posted reads additionally keep FIFO order among themselves,
// while posted writes and completions may pass blocked non-posted reads
// (the spec's deadlock-avoidance allowance).
func (c *channel) send(t *TLP) bool {
	c.settleFC()
	if c.stalled {
		c.park(t)
		return false
	}
	kind, need := creditsFor(t)
	ordered := c.pendPosted > 0 || (t.Type == MRd && c.pend.Len() > 0)
	if ordered || (need.Hdr > 0 && !c.take(kind, need)) {
		c.park(t)
		return false
	}
	c.transmit(t)
	return true
}

// take consumes need from the kind pool if available.
func (c *channel) take(kind CreditKind, need Credits) bool {
	have := c.avail[kind]
	if have.Hdr < need.Hdr || have.Data < need.Data {
		return false
	}
	have.Hdr -= need.Hdr
	have.Data -= need.Data
	c.avail[kind] = have
	return true
}

// park appends t to the pend queue. From now on retryPending must run at
// the instant each UpdateFC for this channel arrives, so the reserved
// arrivals become real events.
func (c *channel) park(t *TLP) {
	l := c.link
	for c.fc.Len() > 0 {
		f := c.fc.Pop()
		d := l.dllps.Alloc()
		d.Type = UpdateFC
		d.Kind = f.kind
		d.Credit = f.credit
		l.k.Materialize(f.r, c.reverse().arriveDLLPFn, d)
	}
	c.pend.Push(t)
	if t.Type == MWr {
		c.pendPosted++
	}
	c.blocked++
	if c.pend.Len() > c.maxPend {
		c.maxPend = c.pend.Len()
	}
	// Upstream pend is the receiver-overload signal the attribution cares
	// about: a host write waiting out PCIe credits. Arg carries the depth.
	if c.dir == Up && l.tr != nil {
		l.tr.Emit(trace.Event{At: l.k.Now(), Kind: trace.EvPend,
			Node: l.trNode, Arg: uint64(c.pend.Len())})
	}
}

// transmit serializes t onto the wire and schedules its arrival.
func (c *channel) transmit(t *TLP) {
	k := c.link.k
	t.Seq = c.seq
	c.seq++
	c.sentTLP++
	txDone := c.serialize(t.WireBytes())
	arrival := txDone + c.link.prop

	// The analyzer tap sits just before the endpoint: downstream packets
	// pass it at arrival (folded into arriveTLPFn); upstream packets pass
	// it as they leave the endpoint.
	if c.dir == Up && c.link.tap != nil {
		k.AtArg(txDone, c.tapTLPFn, t)
	}
	k.AtArg(arrival, c.arriveTLPFn, t)
}

// serialize puts n bytes on the channel's serializer behind whatever
// occupies it and reports when they are through. The reserved ACKs that
// are due took the serializer before them, so it settles those first.
func (c *channel) serialize(n int) units.Time {
	c.settleAcks()
	c.busyUntil = units.Max(c.link.k.Now(), c.busyUntil) + SerTime(n)
	return c.busyUntil
}

// settleAcks puts the reserved ACKs that are due on the serializer, in
// order.
func (c *channel) settleAcks() {
	k := c.link.k
	for c.acks.Len() > 0 && k.Due(c.acks.At(0)) {
		r := c.acks.Pop()
		c.busyUntil = units.Max(r.At(), c.busyUntil) + SerTime(DLLPBytes)
	}
}

// settleFC returns the credits of the reserved UpdateFC arrivals that are
// due.
func (c *channel) settleFC() {
	k := c.link.k
	for c.fc.Len() > 0 && k.Due(c.fc.At(0).r) {
		f := c.fc.Pop()
		c.avail[f.kind] = c.avail[f.kind].plus(f.credit)
	}
}

// deliver hands t to the receiving side. Ownership of t passes to the
// receiver (see the package borrow contract). After the turnaround the
// reverse channel sends t's ACK and, for a flow-controlled TLP, right
// behind it the UpdateFC returning its credits: one event sends both, as
// nothing can fire between two events at one instant with consecutive
// seqs. The event carries the ACK, and the credits in its Kind and Credit
// until it sends the UpdateFC. On an untapped link a credit-free TLP's ACK
// only takes the reverse serializer, so it is reserved there instead.
func (c *channel) deliver(t *TLP) {
	l := c.link
	rev := c.reverse()
	if kind, need := creditsFor(t); need.Hdr > 0 || l.tap != nil {
		ack := l.dllps.Alloc()
		ack.Type = Ack
		ack.AckSeq = t.Seq
		ack.Kind = kind
		ack.Credit = need
		l.k.AfterArg(AckDelay, rev.sendAckFn, ack)
	} else {
		rev.acks.Push(l.k.Reserve(l.k.Now() + AckDelay))
	}

	var rx Receiver
	if c.dir == Down {
		rx = l.epSide
	} else {
		rx = l.rcSide
	}
	if rx == nil {
		panic(fmt.Sprintf("pcie: no receiver attached for %v direction", c.dir))
	}
	rx.RxTLP(t)
}

func (c *channel) reverse() *channel {
	if c.dir == Down {
		return c.link.up
	}
	return c.link.down
}

// sendAck sends a delivered TLP's ACK, ack, on this channel and, when ack
// carries credits, the UpdateFC returning them right behind it. DLLPs
// share the wire with TLPs (they occupy the serializer) and pass the tap
// under the same placement rules. On an untapped link the ACK still takes
// its serializer time but ends here, since its arrival would change
// nothing, and the UpdateFC's arrival is reserved while its channel has
// nothing pended and is not paused: the credits then settle when that
// channel next reads them.
func (c *channel) sendAck(ack *DLLP) {
	l := c.link
	kind, credit := ack.Kind, ack.Credit
	ack.Kind, ack.Credit = 0, Credits{}
	txDone := c.serialize(DLLPBytes)
	if l.tap != nil {
		c.emitDLLP(ack, txDone)
	} else {
		ack.Release()
	}
	if credit.Hdr == 0 {
		return
	}
	txDone = c.serialize(DLLPBytes)
	if fwd := c.reverse(); l.tap == nil && fwd.pend.Len() == 0 && !fwd.stalled {
		fwd.fc.Push(fcReturn{r: l.k.Reserve(txDone + l.prop), kind: kind, credit: credit})
		return
	}
	upd := l.dllps.Alloc()
	upd.Type = UpdateFC
	upd.Kind = kind
	upd.Credit = credit
	c.emitDLLP(upd, txDone)
}

// emitDLLP schedules the arrival of d, which leaves the serializer at
// txDone, and on a tapped link its departure past the tap upstream.
func (c *channel) emitDLLP(d *DLLP, txDone units.Time) {
	l := c.link
	if l.tap != nil && c.dir == Up {
		l.k.AtArg(txDone, c.tapDLLPFn, d)
	}
	l.k.AtArg(txDone+l.prop, c.arriveDLLPFn, d)
}

// deliverDLLP applies a DLLP at the receiving side. ACKs retire the replay
// buffer (not modelled beyond accounting, so they change nothing here);
// UpdateFC restores the *opposite* channel's sender credits and unblocks
// pending TLPs.
func (c *channel) deliverDLLP(d *DLLP) {
	if d.Type != UpdateFC {
		return
	}
	fwd := c.reverse() // credits apply to traffic flowing opposite the DLLP
	fwd.avail[d.Kind] = fwd.avail[d.Kind].plus(d.Credit)
	fwd.retryPending()
}

// retryPending attempts to transmit credit-blocked TLPs in order. Ordering
// is preserved: the scan stops at the first TLP that still lacks credits.
// Each pended upstream TLP that transmits is reported to the OnUpIssued
// hook, in the same FIFO order it was parked. A stalled (host-paused)
// channel drains nothing — an UpdateFC arriving mid-pause must not sneak
// TLPs past the frozen issue path.
func (c *channel) retryPending() {
	if c.stalled {
		return
	}
	for c.pend.Len() > 0 {
		t := c.pend.At(0)
		kind, need := creditsFor(t)
		if need.Hdr > 0 && !c.take(kind, need) {
			return
		}
		c.popTransmit(t)
	}
}

// popTransmit removes the head pend entry (t) and puts it on the wire,
// reporting upstream issues to the OnUpIssued hook.
func (c *channel) popTransmit(t *TLP) {
	c.pend.Pop()
	if t.Type == MWr {
		c.pendPosted--
	}
	c.transmit(t)
	if l := c.link; c.dir == Up && l.tr != nil {
		l.tr.Emit(trace.Event{At: l.k.Now(), Kind: trace.EvIssue,
			Node: l.trNode, Arg: uint64(c.pend.Len())})
	}
	if c.dir == Up && c.link.onUpIssued != nil {
		c.link.onUpIssued(t)
	}
}
