package perftest

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/units"
)

// PCIeWriteCycle reports the modelled receiver-side PCIe service time per
// inbound message of msgSize bytes when the message's MWr fills the posted
// data credit pool (one write in flight at a time, which holds for
// msgSize > 16*PostedCredits.Data/2 — e.g. 4 KiB against the default 256
// data credits): TLP serialization, flight to the Root Complex, the ACK
// turnaround, and the two back-to-back DLLPs (Ack + UpdateFC) flying the
// credit back. Under a saturating incast this cycle — not the wire — is
// the receiver's drain rate, so aggregate goodput converges to one message
// per cycle.
func PCIeWriteCycle(cfg *config.Config, msgSize int) units.Time {
	l := cfg.Link
	ser := func(b int) units.Time { return units.Time(b) * l.PerByte }
	return ser(msgSize+l.TLPHeader) + l.Prop + l.AckDelay + 2*ser(l.DLLPBytes) + l.RxProcess + l.Prop
}

// OversubscribedResult reports the incast: N senders into one receiver,
// with the receiver-side overload accounting an rx budget introduces.
type OversubscribedResult struct {
	Senders  int
	MsgSize  int
	Messages int
	Elapsed  units.Time
	// AggMsgRate is messages per second across every sender.
	AggMsgRate float64
	// PerSenderMsgRate is the per-sender average — the number that
	// collapses as the shared receiver downlink port congests.
	PerSenderMsgRate float64
	// PerSenderBwMBs is the matching per-sender goodput in MB/s.
	PerSenderBwMBs float64
	// MaxSwitchQueue is the deepest switch output-port queue of the run
	// (the incast hotspot is the receiver's downlink port).
	MaxSwitchQueue int
	// CreditStalls counts egress stalls on exhausted link credits —
	// backpressure reaching the senders.
	CreditStalls uint64

	// RxBudget is the receiver NIC's configured pend budget (0 =
	// unbounded).
	RxBudget int
	// MaxRxHeld is the receiver NIC's held-frame high-water mark; with a
	// budget it never exceeds it.
	MaxRxHeld int
	// MaxUpPend is the deepest the receiver's NIC->RC PCIe pend queue
	// got — the quantity that grew without bound before rx buffering was
	// bounded.
	MaxUpPend int
	// RNRNaks counts frames the receiver refused; Retransmits counts the
	// senders' replay rounds and RetryStall their accumulated backoff
	// time (summed across senders).
	RNRNaks     uint64
	Retransmits uint64
	RetryStall  units.Time
	// ModelCycleNs is the modelled PCIe service time per message
	// (PCIeWriteCycle): under saturation the per-sender injection
	// interval converges to Senders x this.
	ModelCycleNs float64
	// Err is the first transport error a post returned, nil on a complete
	// run; the other fields are partial when it is set.
	Err error
}

// OversubscribedPutBw runs the incast: `senders` nodes
// (sys.Nodes[1..senders]) run the put_bw loop into node 0 concurrently.
// All flows converge on the receiver's downlink switch port, whose
// serialization queue and credit backpressure the topology models; for
// large messages the receiver's PCIe link, not the wire, is the
// bottleneck, so the offered load oversubscribes the receiver. With
// cfg.NICRxBudget set the receiver holds at most that many frames (each
// unreleased frame keeps its final-hop fabric credit, backpressuring the
// switch hop by hop) and refuses the rest with RNR NAKs; goodput still
// converges to the PCIe service rate because the held frames bridge the
// senders' backoff windows. With no budget it is the classic incast, and
// with one sender the uncontended baseline on the identical path. senders
// <= 0 selects every node but the receiver.
func OversubscribedPutBw(sys *node.System, senders int, opt Options) *OversubscribedResult {
	opt.Defaults(sys.Cfg)
	senders = clampSenders(sys, senders)
	recv := sys.Nodes[0]
	res := &OversubscribedResult{
		Senders:      senders,
		MsgSize:      opt.MsgSize,
		RxBudget:     recv.NIC.RxBudget(),
		ModelCycleNs: PCIeWriteCycle(sys.Cfg, opt.MsgSize).Ns(),
	}
	snd, recvW := connectSenders(sys, sys.Nodes[1:senders+1], recv, opt, "incast")
	st := runPutLoops(sys, snd, opt, "incast")

	res.Err = st.err
	res.Messages = senders * opt.Iters
	res.Elapsed = st.end - st.start
	res.AggMsgRate = float64(res.Messages) / res.Elapsed.Seconds()
	res.PerSenderMsgRate = res.AggMsgRate / float64(senders)
	res.PerSenderBwMBs = res.PerSenderMsgRate * float64(opt.MsgSize) / 1e6
	res.MaxSwitchQueue = sys.Topo().MaxSwitchQueue()
	res.CreditStalls = sys.Topo().CreditStalls()
	res.MaxRxHeld = recv.NIC.RxHeldMax()
	_, res.MaxUpPend = recv.Link.MaxPend()
	for _, e := range recvW.Eps {
		res.RNRNaks += e.QP().RNRNaksSent
	}
	for _, s := range snd {
		qp := s.ep.QP()
		res.Retransmits += qp.RnrRetransmits
		res.RetryStall += qp.RnrStall
	}
	return res
}

// String renders the result.
func (r *OversubscribedResult) String() string {
	return fmt.Sprintf("incast put_bw: %d senders x %dB (rx budget %d), %d msgs in %v -> %.0f msg/s/sender (%.1f MB/s/sender; model %.1f ns/msg; max switch queue %d, %d credit stalls; rx held max %d, pend max %d, %d RNR NAKs, %d replays, %v stalled)",
		r.Senders, r.MsgSize, r.RxBudget, r.Messages, r.Elapsed, r.PerSenderMsgRate, r.PerSenderBwMBs, r.ModelCycleNs,
		r.MaxSwitchQueue, r.CreditStalls, r.MaxRxHeld, r.MaxUpPend, r.RNRNaks, r.Retransmits, r.RetryStall)
}
