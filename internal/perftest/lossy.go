package perftest

import (
	"encoding/binary"
	"fmt"
	"strings"

	"breakband/internal/campaign"
	"breakband/internal/config"
	"breakband/internal/nic"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// amLossy is the active-message id the lossy stream rides on.
const amLossy = 5

// seqCheck verifies a sequence-stamped stream at the receiver: every
// delivered payload must carry the next sequence number (little-endian in
// bytes 0..7) and the exact pattern fill seqStamp wrote behind it —
// exactly once, in order, uncorrupted.
type seqCheck struct {
	msgSize   int
	expected  uint64 // next sequence number the application must see
	delivered int
	// Integrity violations — all must stay zero on a transport that
	// recovers.
	dups, gaps, corrupt, badLen int
}

// check verifies one delivered payload.
func (c *seqCheck) check(data []byte) {
	if len(data) != c.msgSize {
		c.badLen++
		return
	}
	seq := binary.LittleEndian.Uint64(data[:8])
	switch d := int64(seq - c.expected); {
	case d == 0:
		c.expected++
		c.delivered++
		for j := 8; j < len(data); j++ {
			if data[j] != byte(seq+uint64(j)) {
				c.corrupt++
				break
			}
		}
	case d < 0:
		c.dups++
	default:
		c.gaps++
	}
}

// seqStamp writes message i's payload: sequence number plus pattern fill.
func seqStamp(msg []byte, i int) {
	binary.LittleEndian.PutUint64(msg[:8], uint64(i))
	for j := 8; j < len(msg); j++ {
		msg[j] = byte(uint64(i) + uint64(j))
	}
}

// lossyRecvFrame is the lossy stream's verifier. It waits on the receiver
// worker until finished, bound once per run, reports that every message
// arrived or that the stream's sender finished with a failed QP, and its
// verify, the receiver's AM handler, runs the sequence check that turns
// "the transport recovered" into an application-layer assertion.
type lossyRecvFrame struct {
	seqCheck
	w        *uct.Worker
	s        *sender
	total    int
	lastRx   units.Time
	finished func() bool
	pc       int
}

// verify is the receiver's AM handler.
func (f *lossyRecvFrame) verify(t *sim.Task, data []byte) {
	f.lastRx = t.Now()
	f.check(data)
}

func (f *lossyRecvFrame) Step(t *sim.Task) {
	switch f.pc {
	case 0:
		f.pc = 1
		f.w.Eps[0].StartPostRecvs(t, 64)
	case 1:
		f.pc = 2
		f.w.StartProgressUntil(t, f.finished)
	case 2:
		t.Return()
	}
}

// LossyResult reports one lossy stream run.
type LossyResult struct {
	DropRate    float64
	CorruptRate float64
	Total       int
	// Delivered counts messages the application accepted in sequence;
	// short of Err it must equal Total.
	Delivered int
	// Application-layer integrity violations — all must be zero at any
	// loss rate the transport survives.
	Duplicated int
	Misordered int
	Corrupted  int
	BadLength  int
	// Err is the first transport error a post returned or the drain
	// retired, nil on a complete run; the other fields are then partial.
	Err error
	// Elapsed is start-of-run to last accepted delivery; GoodputMBs the
	// delivered payload over it.
	Elapsed    units.Time
	GoodputMBs float64
	// Transport/wire observability.
	SenderStats   nic.Stats
	ReceiverStats nic.Stats
	WireDropped   uint64
	WireCorrupted uint64
}

// LossyPutBw streams opt.Iters sequence-stamped active messages from node
// 0 to node 1 over whatever fault schedule sys was built with, and verifies
// at the application layer that delivery is bit-exact, exactly-once and
// in-order — the transport's PSN/ACK-timeout/NAK machinery has to absorb
// every injected drop and corruption. Goodput degrades with the loss rate;
// integrity must not. The stream is one put_bw sender whose whole run is
// the loop's unmeasured phase: a poll every pollBatch posts, no
// measurement update, then the drain. Every message carries an 8-byte
// sequence stamp, so opt.MsgSize must be at least 8; a smaller one panics.
func LossyPutBw(sys *node.System, opt Options) *LossyResult {
	opt.Defaults()
	if opt.MsgSize < 8 {
		panic(fmt.Sprintf("perftest: lossy message size %d: every message carries an 8-byte sequence stamp, so it needs at least 8 bytes", opt.MsgSize))
	}
	cfg := sys.Cfg
	snd, recvW := connectSenders(sys, sys.Nodes[:1], sys.Nodes[1], opt, "lossy")
	snd[0].am = amLossy
	snd[0].waiter = recvW
	v := &lossyRecvFrame{seqCheck: seqCheck{msgSize: opt.MsgSize}, w: recvW, s: snd[0], total: opt.Iters}
	v.finished = func() bool { return v.delivered >= v.total || (v.s.done && v.s.err() != nil) }
	recvW.SetAmHandler(amLossy, v.verify)
	sys.K.SpawnTask("lossy.receiver", v)
	st := runPutLoops(sys, snd, Options{Warmup: opt.Iters, MsgSize: opt.MsgSize, Mode: opt.Mode}, "lossy")

	if st.err == nil && v.delivered != v.total {
		panic(fmt.Sprintf("perftest: lossy run ended with %d of %d delivered and no QP error", v.delivered, v.total))
	}
	res := &LossyResult{
		DropRate:      cfg.Faults.DropRate,
		CorruptRate:   cfg.Faults.CorruptRate,
		Total:         v.total,
		Delivered:     v.delivered,
		Duplicated:    v.dups,
		Misordered:    v.gaps,
		Corrupted:     v.corrupt,
		BadLength:     v.badLen,
		Err:           st.err,
		Elapsed:       v.lastRx,
		SenderStats:   sys.Nodes[0].NIC.Stats(),
		ReceiverStats: sys.Nodes[1].NIC.Stats(),
	}
	if res.Elapsed > 0 {
		res.GoodputMBs = float64(res.Delivered) * float64(opt.MsgSize) / 1e6 / res.Elapsed.Seconds()
	}
	if sys.Faults != nil {
		res.WireDropped, res.WireCorrupted, _ = sys.Faults.Totals()
	}
	return res
}

// LossySweep runs LossyPutBw across a ladder of loss rates (each applied
// as both the drop and the corrupt rate), building a fresh system per
// point — the payoff scenario of the fault-injection subsystem. Rate zero
// is the lossless baseline: no injector is compiled and the timeout
// machinery stays disarmed. The points fan out on a GOMAXPROCS-wide pool.
func LossySweep(base *config.Config, rates []float64, opt Options) []*LossyResult {
	return campaign.Map(0, rates, func(_ int, r float64) *LossyResult {
		c := *base
		c.Faults.DropRate = r
		c.Faults.CorruptRate = r
		sys := node.NewSystem(&c, 2)
		defer sys.Shutdown()
		return LossyPutBw(sys, opt)
	})
}

// String renders the result.
func (r *LossyResult) String() string {
	state := "ok"
	if r.Err != nil {
		state = "FAILED: " + r.Err.Error()
	}
	return fmt.Sprintf("lossy put_bw: drop %g corrupt %g: %d/%d delivered (%d dup, %d misordered, %d corrupt) in %v -> %.2f MB/s, wire -%d/-%d, %s",
		r.DropRate, r.CorruptRate, r.Delivered, r.Total, r.Duplicated, r.Misordered, r.Corrupted,
		r.Elapsed, r.GoodputMBs, r.WireDropped, r.WireCorrupted, state)
}

// FlapIncastResult reports the link-flap incast scenario.
type FlapIncastResult struct {
	Senders int
	MsgSize int
	// Down/Up is the first configured flap window.
	Down, Up units.Time
	Elapsed  units.Time
	// Aggregate measured-iteration completion rates (msg/s) before the
	// link went down, while it was down, and after it came back — the
	// recovery assertion is PostRate ~= PreRate.
	PreRate, DipRate, PostRate float64
	PreN, DipN, PostN          int
	// Transport recovery activity across the sender NICs.
	AckTimeouts, SeqNaks, Retransmits uint64
	WireDropped                       uint64
	Flaps                             uint64
	// Err is the first transport error a post returned or the drain
	// retired, nil on a complete run; the other fields are then partial.
	Err error
	// Unmeasured, when set, names each window that falls outside the
	// measured phase, which runs from the window start to the first
	// sender's last mark: a rate over such a window counts iterations the
	// run never measured, so it is not a measurement. A warmup that
	// outlasts the pre window, or too few iterations to reach the post
	// window, sets it.
	Unmeasured error
}

// FlapIncastPutBw runs the incast put_bw loop over a fault schedule that
// flaps a fabric link — sys must be built with at least one
// cfg.Faults.Flaps entry, typically a fat-tree leaf up-link some of the
// flows ride. Unlike OversubscribedPutBw it takes its `senders` senders
// from the END of the node list (sys.Nodes[len-senders:] into node 0), so
// on a fat-tree the set can be kept leaf-symmetric: a sender sharing the
// receiver's leaf runs a much shorter RTT and would skew the windowed
// rates. While the link is down ECMP re-hashes the affected flows around
// the dead path and the ACK-timeout machinery replays what the flap
// swallowed; after recovery the routes rehash back and the aggregate rate
// must return to the pre-fault steady state. Per-iteration completion
// timestamps split the run into pre/dip/post windows, and Unmeasured
// reports any window the measured phase does not cover.
func FlapIncastPutBw(sys *node.System, senders int, opt Options) *FlapIncastResult {
	opt.Defaults()
	cfg := sys.Cfg
	if len(cfg.Faults.Flaps) == 0 {
		panic("perftest: FlapIncastPutBw needs a cfg.Faults.Flaps schedule")
	}
	senders = clampSenders(sys, senders)
	snd, _ := connectSenders(sys, sys.Nodes[len(sys.Nodes)-senders:], sys.Nodes[0], opt, "flap")
	for _, s := range snd {
		s.mark = true
	}
	st := runPutLoops(sys, snd, opt, "flap")

	fl := cfg.Faults.Flaps[0]
	res := &FlapIncastResult{
		Senders: senders, MsgSize: opt.MsgSize,
		Down: fl.Down, Up: fl.Up,
		Elapsed: st.end - st.start,
		Err:     st.err,
	}
	// The pre and post windows are interior so the rates compare like
	// with like: the pre window opens halfway to the flap (past the
	// initial pipeline-fill burst, which posts far faster than the
	// congested steady state), and the post window opens a settle margin
	// after restore (past the reorder/replay churn of the path moving
	// back) and closes when the first sender runs out of work (past that
	// point fewer flows are active and the aggregate is not comparable).
	postEnd := st.end
	for _, s := range snd {
		if n := len(s.marks); n > 0 && s.marks[n-1] < postEnd {
			postEnd = s.marks[n-1]
		}
	}
	preLo, preHi := fl.Down/2, fl.Down
	postLo := fl.Up + (fl.Up-fl.Down)/2
	for _, s := range snd {
		for _, at := range s.marks {
			switch {
			case at >= preLo && at < preHi:
				res.PreN++
			case at >= fl.Down && at < fl.Up:
				res.DipN++
			case at >= postLo && at < postEnd:
				res.PostN++
			}
		}
	}
	rate := func(n int, span units.Time) float64 {
		if span <= 0 {
			return 0
		}
		return float64(n) / span.Seconds()
	}
	res.PreRate = rate(res.PreN, preHi-preLo)
	res.DipRate = rate(res.DipN, fl.Up-fl.Down)
	res.PostRate = rate(res.PostN, postEnd-postLo)
	var outside []string
	for _, w := range []struct {
		name   string
		lo, hi units.Time
	}{{"pre", preLo, preHi}, {"dip", fl.Down, fl.Up}, {"post", postLo, postEnd}} {
		if w.lo < st.start || w.hi > postEnd || w.lo >= w.hi {
			outside = append(outside, fmt.Sprintf("%s %v..%v", w.name, w.lo, w.hi))
		}
	}
	if outside != nil {
		res.Unmeasured = fmt.Errorf("windows outside the measured phase %v..%v: %s",
			st.start, postEnd, strings.Join(outside, ", "))
	}
	for _, s := range snd {
		ns := s.n.NIC.Stats()
		res.AckTimeouts += ns.AckTimeouts
		res.SeqNaks += ns.SeqNaksRecv
		res.Retransmits += ns.Retransmits
	}
	if sys.Faults != nil {
		res.WireDropped, _, res.Flaps = sys.Faults.Totals()
	}
	return res
}

// String renders the result.
func (r *FlapIncastResult) String() string {
	return fmt.Sprintf("flap incast: %d senders x %dB, link down %v..%v: %.0f msg/s pre -> %.0f dip -> %.0f post (%d timeouts, %d seq-naks, %d retransmits, wire -%d)",
		r.Senders, r.MsgSize, r.Down, r.Up, r.PreRate, r.DipRate, r.PostRate,
		r.AckTimeouts, r.SeqNaks, r.Retransmits, r.WireDropped)
}
