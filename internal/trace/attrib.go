package trace

import (
	"fmt"
	"sort"
	"strings"

	"breakband/internal/units"
)

// Calib supplies the analytically calibrated ideal time the attribution
// subtracts from measured spans. perftest builds one from a built system
// (the fabric's uncontended wire time); the conservation tests pin that
// the formula matches the simulator exactly. The receiver's ideal hold is
// zero: with PCIe credits available a delivered frame's host-memory write
// starts at once, so the whole deliver-to-release hold is Pend.
type Calib struct {
	// WireIdeal reports the uncontended inject-to-deliver time of a data
	// frame of the given payload size crossing the given number of
	// serialization ports.
	WireIdeal func(bytes, hops int) units.Time
}

// Msg is the stall attribution of one message: where the span between its
// first injection and its final delivery actually went. All component
// fields are disjoint; Residual reports what the attribution failed to
// explain (0 when instrumentation and calibration are both exact).
type Msg struct {
	Src     int    // source node
	QPN     uint32 // source queue pair
	PSN     uint32 // packet sequence number (one message = one frame)
	Bytes   int
	Hops    int // serialization ports crossed by the delivered flight
	Flights int // transmissions, 1 = delivered first try

	Inject units.Time // first injection into the fabric
	Done   units.Time // receiver released the delivered frame

	Ideal   units.Time // calibrated uncontended wire time
	Queue   units.Time // waiting behind other frames in switch-port FIFOs
	Stall   units.Time // head-of-queue waits for downstream link credits
	Pend    units.Time // receiver hold from delivery to release (PCIe pend)
	Backoff units.Time // RNR backoff windows between first and final inject
	Waste   units.Time // remaining retransmission time (NAK return, replay)
}

// Measured reports the end-to-end latency being attributed.
func (m *Msg) Measured() units.Time { return m.Done - m.Inject }

// Residual reports measured latency minus the sum of all attributed
// components — the conservation error.
func (m *Msg) Residual() units.Time {
	return m.Measured() - (m.Ideal + m.Queue + m.Stall + m.Pend + m.Backoff + m.Waste)
}

// Report is the aggregate stall attribution of a traced window.
type Report struct {
	Msgs []Msg // completed messages, in completion order

	// Component totals over Msgs.
	Ideal, Queue, Stall, Pend, Backoff, Waste units.Time
	Measured                                  units.Time

	// Incomplete counts messages that had injected but not delivered when
	// the window closed.
	Incomplete int
}

// MaxResidual reports the largest absolute per-message conservation error.
func (r *Report) MaxResidual() units.Time {
	var worst units.Time
	for i := range r.Msgs {
		res := r.Msgs[i].Residual()
		if res < 0 {
			res = -res
		}
		if res > worst {
			worst = res
		}
	}
	return worst
}

// Shares reports each component's fraction of total measured latency, in
// the order ideal, queue, stall, pend, backoff, waste.
func (r *Report) Shares() [6]float64 {
	var out [6]float64
	if r.Measured == 0 {
		return out
	}
	tot := float64(r.Measured)
	for i, c := range [6]units.Time{r.Ideal, r.Queue, r.Stall, r.Pend, r.Backoff, r.Waste} {
		out[i] = float64(c) / tot
	}
	return out
}

// Format renders the attribution as a small table: component totals,
// shares, and the conservation residual.
func (r *Report) Format() string {
	var b strings.Builder
	n := len(r.Msgs)
	if n == 0 {
		return "stall attribution: no completed messages in trace window\n"
	}
	fmt.Fprintf(&b, "stall attribution over %d message(s), mean latency %v:\n",
		n, r.Measured/units.Time(n))
	sh := r.Shares()
	rows := []struct {
		name string
		tot  units.Time
		sh   float64
	}{
		{"ideal (wire+rx)", r.Ideal, sh[0]},
		{"switch queueing", r.Queue, sh[1]},
		{"credit stall", r.Stall, sh[2]},
		{"PCIe pend", r.Pend, sh[3]},
		{"RNR backoff", r.Backoff, sh[4]},
		{"retransmit waste", r.Waste, sh[5]},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-17s %12v  (%5.1f%%, %v/msg)\n",
			row.name, row.tot, 100*row.sh, row.tot/units.Time(n))
	}
	fmt.Fprintf(&b, "  conservation: max |residual| = %v over %d msg(s), %d flight(s) incomplete\n",
		r.MaxResidual(), n, r.Incomplete)
	return b.String()
}

// flight is the in-air state of one traced frame transmission.
type flight struct {
	key     uint64
	t0      units.Time // inject
	mark    units.Time // last lifecycle boundary processed
	deliver units.Time
	queue   units.Time
	stall   units.Time
	bytes   int
	hops    int
	stalled bool
	dead    bool // refused, dropped or discarded — cannot complete a message
}

// msgState accumulates a message across its flights until delivery.
type msgState struct {
	inject  units.Time
	flights int
}

// qpState tracks one initiator QP's backoff windows during the window.
type qpState struct {
	backoffAt units.Time // arm time of an open backoff window (-1 = none)
	windows   [][2]units.Time
}

func msgKey(node int16, qpn, psn uint32) uint64 {
	return uint64(uint16(node))<<48 | uint64(qpn&0xffffff)<<24 | uint64(psn&0xffffff)
}

func qpKey(node int16, qpn uint32) uint64 {
	return uint64(uint16(node))<<24 | uint64(qpn&0xffffff)
}

// Attribute folds a trace window (Tracer.Events order) into per-message
// stall attribution. Flights whose inject was overwritten in the ring are
// ignored; messages still incomplete at the end of the window are counted
// in Report.Incomplete.
func Attribute(events []Event, calib Calib) *Report {
	rep := &Report{}
	flights := make(map[uint32]*flight)
	msgs := make(map[uint64]*msgState)
	qps := make(map[uint64]*qpState)

	for i := range events {
		e := &events[i]
		switch e.Kind {
		case EvInject:
			f := &flight{
				key:   msgKey(e.Node, MsgQPN(e.Arg), MsgPSN(e.Arg)),
				t0:    e.At,
				mark:  e.At,
				bytes: MsgBytes(e.Arg),
			}
			flights[e.TID] = f
			m := msgs[f.key]
			if m == nil {
				msgs[f.key] = &msgState{inject: e.At, flights: 1}
			} else {
				m.flights++
			}
		case EvQueue:
			if f := flights[e.TID]; f != nil {
				// Everything since the last txstart (or the inject) is
				// serialization plus flight: uncontended constants.
				f.mark = e.At
				f.stalled = false
			}
		case EvStall:
			// A port re-checking credits for the same head frame emits
			// repeat stalls; only the first opens the stall span.
			if f := flights[e.TID]; f != nil && !f.stalled {
				f.queue += e.At - f.mark
				f.mark = e.At
				f.stalled = true
			}
		case EvTxStart:
			if f := flights[e.TID]; f != nil {
				if f.stalled {
					f.stall += e.At - f.mark
				} else {
					f.queue += e.At - f.mark
				}
				f.mark = e.At
				f.stalled = false
				f.hops++
			}
		case EvDeliver:
			if f := flights[e.TID]; f != nil {
				f.deliver = e.At
				f.mark = e.At
			}
		case EvRefuse, EvDrop:
			if f := flights[e.TID]; f != nil {
				f.dead = true
			}
		case EvRelease:
			f := flights[e.TID]
			if f == nil {
				break
			}
			delete(flights, e.TID)
			if f.dead || f.deliver == 0 {
				break
			}
			m := msgs[f.key]
			if m == nil {
				break // inject fell off the ring
			}
			delete(msgs, f.key)
			msg := Msg{
				Src:     int(uint16(f.key >> 48)),
				QPN:     uint32(f.key >> 24 & 0xffffff),
				PSN:     uint32(f.key & 0xffffff),
				Bytes:   f.bytes,
				Hops:    f.hops,
				Flights: m.flights,
				Inject:  m.inject,
				Done:    e.At,
				Ideal:   calib.WireIdeal(f.bytes, f.hops),
				Queue:   f.queue,
				Stall:   f.stall,
				Pend:    e.At - f.deliver,
			}
			// Retransmission time: the span from the first inject to the
			// final flight's inject splits into RNR backoff windows and
			// everything else (NAK return flight, replay scheduling).
			if retx := f.t0 - m.inject; retx > 0 {
				qp := qps[qpKey(int16(msg.Src), msg.QPN)]
				if qp != nil {
					for _, w := range qp.windows {
						lo, hi := units.Max(w[0], m.inject), units.Min(w[1], f.t0)
						if hi > lo {
							msg.Backoff += hi - lo
						}
					}
				}
				msg.Waste = retx - msg.Backoff
			}
			rep.Msgs = append(rep.Msgs, msg)
			rep.Ideal += msg.Ideal
			rep.Queue += msg.Queue
			rep.Stall += msg.Stall
			rep.Pend += msg.Pend
			rep.Backoff += msg.Backoff
			rep.Waste += msg.Waste
			rep.Measured += msg.Measured()
		case EvNakRx:
			k := qpKey(e.Node, QPQPN(e.Arg))
			qp := qps[k]
			if qp == nil {
				qp = &qpState{backoffAt: -1}
				qps[k] = qp
			}
			qp.backoffAt = e.At
		case EvRetx:
			if qp := qps[qpKey(e.Node, QPQPN(e.Arg))]; qp != nil && qp.backoffAt >= 0 {
				qp.windows = append(qp.windows, [2]units.Time{qp.backoffAt, e.At})
				qp.backoffAt = -1
			}
		}
	}
	rep.Incomplete = len(msgs)
	sort.SliceStable(rep.Msgs, func(i, j int) bool { return rep.Msgs[i].Done < rep.Msgs[j].Done })
	return rep
}
