package perftest

import (
	"errors"
	"fmt"
	"strings"

	"breakband/internal/campaign"
	"breakband/internal/config"
	"breakband/internal/faults"
	"breakband/internal/mpi"
	"breakband/internal/node"
	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// Chaos tags: the sequence-verified stream and the failure-detector probes
// ride separate MPI tags so heartbeats never match stream receives.
const (
	chaosStreamTag = 1
	chaosHbTag     = 2
)

// errChaosDeadline marks a wait abandoned by the application-level give-up
// timer: the peer stopped making progress but its endpoint never errored
// (or had not errored yet), so pending receives are cancelled to guarantee
// the soak drains.
var errChaosDeadline = errors.New("chaos: wait deadline expired with the peer unresponsive")

// ChaosOptions shapes a chaos soak run.
type ChaosOptions struct {
	// Total is the number of sequence-stamped messages per pair; zero
	// selects 240.
	Total int
}

// The fixed shape of every chaos soak.
const (
	// chaosNodes is the fat-tree host count; ranks pair up
	// i <-> i+chaosNodes/2 so every stream crosses leaves.
	chaosNodes = 8
	// chaosWindow bounds the sender's in-flight batch (Isend burst +
	// Waitall).
	chaosWindow = 12
	// chaosGap paces the sender between windows so the stream spans the
	// fault schedule instead of completing before the first fault fires.
	chaosGap = 50 * units.Microsecond
	// chaosHbEvery is the failure-detector probe period: a waiting
	// receiver keeps one heartbeat Isend outstanding toward its peer so a
	// dead endpoint is discovered through the transport's ACK-timeout
	// path.
	chaosHbEvery = 20 * units.Microsecond
	// chaosDeadline is the absolute give-up time: a wait still pending
	// then cancels its receives and drains, guaranteeing termination even
	// for failure shapes the transport cannot attribute.
	chaosDeadline = 30 * units.Millisecond
	// chaosHorizon bounds the simulation (RunUntil); anything still live
	// at the horizon is a watchdog finding.
	chaosHorizon = 50 * units.Millisecond
)

// ChaosSchedule derives a randomized fault schedule from the seed:
// fabric-wide Bernoulli drop/corrupt rates, bounded flaps on redundantly
// routed fat-tree links, zero to two endpoint crashes (some with restart)
// and zero to two host pause windows. Every window is bounded well below
// the transport's retry-exhaustion horizons so transient faults recover and
// only real endpoint deaths escalate to QP errors; only crashes are allowed
// to fail a stream. The schedule depends on (seed, topology) alone.
func ChaosSchedule(seed uint64, cfg *config.Config, nodes int) faults.Config {
	r := rng.Stream(seed, "chaos/schedule")
	fc := faults.Config{
		DropRate:    r.Float64() * 0.01,
		CorruptRate: r.Float64() * 0.005,
	}

	// Flaps go only on switch-tier ports with path redundancy (leaf
	// up-links and spine ports): ECMP diverts around the dead window and
	// the flap's casualties replay on timeout.
	scratch := topo.NewFabric(sim.NewKernel(), cfg.Fabric, cfg.Topology, nodes)
	var redundant []string
	for _, p := range scratch.SwitchPortNames() {
		if strings.Contains(p, ".up") || strings.HasPrefix(p, "spine") {
			redundant = append(redundant, p)
		}
	}
	// Faults land inside the paced stream (which spans ~Total/chaosWindow
	// windows x chaosGap): late enough that every pair moves data first.
	const faultLo, faultHi = 100, 900 // µs
	window := func(lo, hi float64) (units.Time, units.Time) {
		at := units.Microseconds(faultLo + r.Float64()*(faultHi-faultLo))
		return at, at + units.Microseconds(lo+r.Float64()*(hi-lo))
	}
	if len(redundant) > 0 {
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			down, up := window(50, 250)
			fc.Flaps = append(fc.Flaps, faults.Flap{Port: redundant[r.Intn(len(redundant))], Down: down, Up: up})
		}
	}

	// Crashes: at most one per node, half restart later (with the QP
	// table wiped, so the dead generation stays errored either way).
	crashed := map[int]bool{}
	for i, n := 0, r.Intn(3); i < n; i++ {
		nd := r.Intn(nodes)
		if crashed[nd] {
			continue
		}
		crashed[nd] = true
		at := units.Microseconds(faultLo + r.Float64()*(faultHi-faultLo))
		c := faults.Crash{Node: nd, At: at}
		if r.Intn(2) == 1 {
			c.RestartAt = at + units.Microseconds(500+r.Float64()*1500)
		}
		fc.Crashes = append(fc.Crashes, c)
	}

	// Pauses stall a host's PCIe issue path: the NIC's bounded rx
	// buffering fills and the fabric sees RNR backpressure. Windows stay
	// under the RNR retry budget (~126µs of doubling backoff) so paused
	// hosts recover; only crashes are allowed to kill a stream.
	for i, n := 0, r.Intn(3); i < n; i++ {
		nd := r.Intn(nodes)
		if crashed[nd] {
			continue
		}
		at, resume := window(20, 60)
		fc.Pauses = append(fc.Pauses, faults.Pause{Node: nd, At: at, Resume: resume})
	}
	return fc
}

// chaosPair is the shared state of one sequence-verified stream. The
// embedded seqCheck is the receiver-side verification behind the
// corruption/duplication invariant.
type chaosPair struct {
	seqCheck
	src, dst int
	total    int

	sendErr, recvErr     error
	senderDone, recvDone bool
	deadlineCancels      int
}

// hbWaitFrame waits for a set of MPI requests while running an
// application-level failure detector: whenever completion stalls it keeps
// one heartbeat Isend outstanding toward the peer, so a dead or restarted
// endpoint is discovered through the transport's ACK-timeout ->
// retry-exhaustion path and CheckFailed can flush the pending receives. A
// hard deadline backstops failure shapes the transport cannot attribute:
// on expiry the pending receives are cancelled and the frame keeps
// progressing until the remaining sends terminate on their own transport
// bound, so the wait always drains.
type hbWaitFrame struct {
	r    *mpi.Rank
	peer int
	reqs []*mpi.Request
	hb   bool

	err     error // first failure observed; nil on clean completion
	cancels int   // receives abandoned at the deadline

	hbReq   *mpi.Request
	hbNext  units.Time
	hbMsg   []byte
	expired bool
	pc      int
}

func (f *hbWaitFrame) reset(r *mpi.Rank, peer int, reqs []*mpi.Request, hb bool) {
	f.r, f.peer, f.reqs, f.hb = r, peer, reqs, hb
	f.err, f.cancels, f.hbReq, f.expired, f.pc = nil, 0, nil, false, 0
	if hb && f.hbMsg == nil {
		f.hbMsg = make([]byte, 8)
	}
}

func (f *hbWaitFrame) Step(t *sim.Task) {
	r := f.r
	for {
		switch f.pc {
		case 0:
			f.hbNext = t.Now() + chaosHbEvery
			f.pc = 1
		case 1: // poll-loop head
			remaining := 0
			for _, q := range f.reqs {
				if r.CheckFailed(t, q) {
					if err := q.Err(); err != nil && f.err == nil {
						f.err = err
					}
				} else {
					remaining++
				}
			}
			if f.hbReq != nil && f.hbReq.Done() {
				f.hbReq = nil
			}
			if remaining == 0 && f.hbReq == nil {
				f.reqs = nil
				t.Return()
				return
			}
			if !f.expired && t.Now() >= chaosDeadline {
				f.expired = true
				f.hbReq = nil // abandon the in-flight probe, if any
				for _, q := range f.reqs {
					if r.CancelRecv(t, q, errChaosDeadline) {
						f.cancels++
					}
				}
				if f.err == nil {
					f.err = errChaosDeadline
				}
				continue // recount with the cancellations applied
			}
			if remaining > 0 && f.hb && !f.expired && f.hbReq == nil && t.Now() >= f.hbNext {
				f.pc = 2
				r.StartIsend(t, f.peer, chaosHbTag, f.hbMsg)
				return
			}
			t.Advance(r.Cfg.SW.MpichWaitLoop.Sample(r.Node.Rand))
			f.pc = 3
			r.Worker.StartProgress(t)
			return
		case 2:
			f.hbReq = r.LastIsend()
			f.hbNext = t.Now() + chaosHbEvery
			f.pc = 1
		case 3:
			f.pc = 1
		}
	}
}

// chaosSendFrame streams the pair's messages in paced windows: a burst of
// chaosWindow Isends, a failure-aware wait, a chaosGap. A send error (the
// peer crashed, or this rank's own NIC died under it) aborts the stream.
type chaosSendFrame struct {
	r    *mpi.Rank
	pair *chaosPair

	wait hbWaitFrame
	msg  []byte
	reqs []*mpi.Request
	i, w int
	pc   int
}

func (f *chaosSendFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0: // post the receive credits heartbeats will consume
			f.pc = 1
			f.r.StartPreparePostedRecvs(t, 64)
			return
		case 1: // stream-loop head
			if f.i >= f.pair.total || f.pair.sendErr != nil {
				f.pair.senderDone = true
				t.Return()
				return
			}
			f.w = f.pair.total - f.i
			if f.w > chaosWindow {
				f.w = chaosWindow
			}
			f.reqs = f.reqs[:0]
			f.pc = 2
		case 2: // post one window message
			if len(f.reqs) == f.w {
				f.wait.reset(f.r, f.pair.dst, f.reqs, false)
				f.pc = 4
				t.Call(&f.wait)
				return
			}
			seqStamp(f.msg, f.i+len(f.reqs))
			f.pc = 3
			f.r.StartIsend(t, f.pair.dst, chaosStreamTag, f.msg)
			return
		case 3:
			f.reqs = append(f.reqs, f.r.LastIsend())
			f.pc = 2
		case 4: // window waited
			for _, q := range f.reqs {
				if err := q.Err(); err != nil && f.pair.sendErr == nil {
					f.pair.sendErr = err
				}
			}
			if f.wait.err != nil && f.pair.sendErr == nil {
				f.pair.sendErr = f.wait.err
			}
			f.i += f.w
			if f.pair.sendErr == nil && f.i < f.pair.total {
				t.Advance(chaosGap)
			}
			f.pc = 1
		}
	}
}

// chaosRecvFrame posts the whole stream's receives, waits with the failure
// detector running, then sequence-verifies what completed. On a reliable
// in-order transport the completed set must be an exact prefix of the
// stream: anything else counts as duplication, reordering or corruption.
type chaosRecvFrame struct {
	r    *mpi.Rank
	pair *chaosPair

	wait hbWaitFrame
	reqs []*mpi.Request
	pc   int
}

func (f *chaosRecvFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.r.StartPreparePostedRecvs(t, 64)
			return
		case 1:
			for j := 0; j < f.pair.total; j++ {
				f.reqs = append(f.reqs, f.r.Irecv(t, f.pair.src, chaosStreamTag))
			}
			f.wait.reset(f.r, f.pair.src, f.reqs, true)
			f.pc = 2
			t.Call(&f.wait)
			return
		case 2:
			f.pair.deadlineCancels = f.wait.cancels
			failed := false
			for _, q := range f.reqs {
				if q.Err() != nil {
					if f.pair.recvErr == nil {
						f.pair.recvErr = q.Err()
					}
					failed = true
					continue
				}
				if failed {
					// A success after a failure breaks the prefix
					// property of an in-order stream.
					f.pair.gaps++
					continue
				}
				f.pair.check(q.Data())
			}
			f.pair.recvDone = true
			f.reqs = nil
			t.Return()
			return
		}
	}
}

// ChaosPairReport is one stream's outcome.
type ChaosPairReport struct {
	Src, Dst         int
	MsgSize          int
	Total, Delivered int
	Dups, Gaps       int
	Corrupt, BadLen  int
	SendErr, RecvErr string
	// Survivor marks a pair neither of whose endpoints crashed: it must
	// deliver its whole stream without errors.
	Survivor        bool
	DeadlineCancels int
}

// ChaosResult reports one seeded soak.
type ChaosResult struct {
	Seed     uint64
	Nodes    int
	Schedule faults.Config
	Pairs    []ChaosPairReport

	// Fault activity actually injected.
	WireDropped, WireCorrupted, Flaps uint64
	Crashes, Pauses                   uint64
	// NodeFaults records per-node crash/pause counts (only nodes that
	// actually served an endpoint fault appear).
	NodeFaults []faults.NodeFaults
	// Endpoint failure machinery activity, summed across NICs.
	QPFails, CrashDiscards, FlushedRecvs uint64

	// Invariant outcomes: Violations lists every failed invariant
	// (empty = the seed passed); StallReport is the kernel watchdog's
	// stall attribution when tasks were still live at the horizon.
	Violations  []string
	StallReport string
	Events      uint64
	EndTime     units.Time
}

// Passed reports whether every invariant held.
func (r *ChaosResult) Passed() bool { return len(r.Violations) == 0 }

// ChaosSoak runs one seeded chaos campaign: mixed-size sequence-verified
// streams between cross-leaf pairs on a fat-tree, under the seed's
// randomized schedule of wire faults, link flaps, endpoint crashes and
// host pauses. After the bounded run it checks the five soak invariants:
//
//  1. integrity — no stream saw duplication, reordering, corruption or a
//     bad length, whatever the schedule did;
//  2. termination — every stream's sender and receiver task finished
//     (every request completed with success or error — no hang);
//  3. watchdog-clean — the kernel's quiescence watchdog reports no stuck
//     task at the horizon;
//  4. pools drained — no fabric frame, payload buffer or PCIe packet
//     leaked;
//  5. survivor goodput — pairs with no crashed endpoint delivered their
//     whole stream error-free, and every pair moved data before its
//     fault window hit.
func ChaosSoak(base *config.Config, seed uint64, opt ChaosOptions) *ChaosResult {
	if opt.Total == 0 {
		opt.Total = 240
	}
	cfg := *base
	cfg.Seed = seed
	cfg.Topology = topo.Spec{Kind: topo.FatTree}
	// Per-message signaled completions: the windowed waits (and the
	// failure detector's single outstanding heartbeat) need every send to
	// produce a CQE, like the mpi tests run.
	cfg.SignalPeriod = 1
	cfg.Faults = ChaosSchedule(seed, &cfg, chaosNodes)

	sys := node.NewSystem(&cfg, chaosNodes)
	defer sys.Shutdown()
	comm := mpi.NewComm(sys.Nodes, &cfg, uct.PIOInline)

	crashed := map[int]bool{}
	for _, c := range cfg.Faults.Crashes {
		crashed[c.Node] = true
	}

	tr := rng.Stream(seed, "chaos/traffic")
	half := chaosNodes / 2
	pairs := make([]*chaosPair, half)
	for i := 0; i < half; i++ {
		p := &chaosPair{seqCheck: seqCheck{msgSize: 8 + 8*tr.Intn(3)}, src: i, dst: i + half, total: opt.Total}
		pairs[i] = p
		send := &chaosSendFrame{r: comm.Ranks[p.src], pair: p, msg: make([]byte, p.msgSize)}
		recv := &chaosRecvFrame{r: comm.Ranks[p.dst], pair: p}
		sys.K.SpawnTask(fmt.Sprintf("chaos.send%d-%d", p.src, p.dst), send)
		sys.K.SpawnTask(fmt.Sprintf("chaos.recv%d-%d", p.src, p.dst), recv)
	}

	res := &ChaosResult{Seed: seed, Nodes: chaosNodes, Schedule: cfg.Faults}
	res.Events = sys.K.RunUntil(chaosHorizon)
	res.EndTime = sys.K.Now()
	res.StallReport = sys.K.StallReport()

	if sys.Faults != nil {
		res.WireDropped, res.WireCorrupted, res.Flaps = sys.Faults.Totals()
		res.Crashes, res.Pauses = sys.Faults.NodeTotals()
		for _, nf := range sys.Faults.NodeFaultRecords() {
			res.NodeFaults = append(res.NodeFaults, *nf)
		}
	}
	for _, n := range sys.Nodes {
		s := n.NIC.Stats()
		res.QPFails += s.QPFails
		res.CrashDiscards += s.CrashDiscards
		res.FlushedRecvs += s.FlushedRecvs
	}

	fail := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	for _, p := range pairs {
		rep := ChaosPairReport{
			Src: p.src, Dst: p.dst, MsgSize: p.msgSize,
			Total: p.total, Delivered: p.delivered,
			Dups: p.dups, Gaps: p.gaps, Corrupt: p.corrupt, BadLen: p.badLen,
			Survivor:        !crashed[p.src] && !crashed[p.dst],
			DeadlineCancels: p.deadlineCancels,
		}
		if p.sendErr != nil {
			rep.SendErr = p.sendErr.Error()
		}
		if p.recvErr != nil {
			rep.RecvErr = p.recvErr.Error()
		}
		res.Pairs = append(res.Pairs, rep)

		name := fmt.Sprintf("pair %d->%d", p.src, p.dst)
		if p.dups+p.gaps+p.corrupt+p.badLen > 0 { // invariant 1
			fail("%s: integrity violated: %d dup, %d misordered, %d corrupt, %d bad length",
				name, p.dups, p.gaps, p.corrupt, p.badLen)
		}
		if !p.senderDone || !p.recvDone { // invariant 2
			fail("%s: stream did not terminate (sender done=%v, receiver done=%v)",
				name, p.senderDone, p.recvDone)
		}
		if rep.Survivor { // invariant 5
			if p.delivered != p.total {
				fail("%s: survivor delivered %d of %d", name, p.delivered, p.total)
			}
			if p.sendErr != nil || p.recvErr != nil {
				fail("%s: survivor saw errors: send=%v recv=%v", name, p.sendErr, p.recvErr)
			}
		} else if p.delivered == 0 {
			fail("%s: no pre-fault goodput", name)
		}
	}
	if res.StallReport != "" { // invariant 3
		fail("watchdog: %s", strings.TrimSpace(res.StallReport))
	}
	if n := sys.Topo().InUseFrames(); n != 0 { // invariant 4
		fail("pools: %d fabric frame(s) leaked", n)
	}
	if n := sys.Topo().Payloads().InUse(); n != 0 {
		fail("pools: %d payload buffer(s) leaked", n)
	}
	for _, n := range sys.Nodes {
		if tlps, dllps := n.Link.InUsePackets(); tlps != 0 || dllps != 0 {
			fail("pools: node %d PCIe link holds %d TLP(s), %d DLLP(s)", n.ID, tlps, dllps)
		}
	}
	return res
}

// ChaosLadder runs ChaosSoak across a seed ladder (fresh system per seed,
// fanned out on a GOMAXPROCS-wide pool) and returns the per-seed results
// in seed order.
func ChaosLadder(base *config.Config, seeds []uint64, opt ChaosOptions) []*ChaosResult {
	return campaign.Map(0, seeds, func(_ int, s uint64) *ChaosResult {
		return ChaosSoak(base, s, opt)
	})
}

// String renders the result.
func (r *ChaosResult) String() string {
	var b strings.Builder
	state := "PASS"
	if !r.Passed() {
		state = "FAIL"
	}
	fmt.Fprintf(&b, "chaos seed %d: %s (%d nodes, %d pairs; drop %.4f corrupt %.4f, %d flap(s), %d crash(es), %d pause(s))\n",
		r.Seed, state, r.Nodes, len(r.Pairs), r.Schedule.DropRate, r.Schedule.CorruptRate,
		len(r.Schedule.Flaps), len(r.Schedule.Crashes), len(r.Schedule.Pauses))
	fmt.Fprintf(&b, "  wire -%d/-%d, %d flap(s) fired, %d crash(es), %d pause(s); %d QP fail(s), %d crash-discard(s), %d flushed recv(s); %d events to t=%v\n",
		r.WireDropped, r.WireCorrupted, r.Flaps, r.Crashes, r.Pauses,
		r.QPFails, r.CrashDiscards, r.FlushedRecvs, r.Events, r.EndTime)
	for _, nf := range r.NodeFaults {
		fmt.Fprintf(&b, "  node %d: %d crash(es), %d pause(s)\n", nf.Node, nf.Crashes, nf.Pauses)
	}
	for _, p := range r.Pairs {
		role := "survivor"
		if !p.Survivor {
			role = "crashed "
		}
		line := fmt.Sprintf("  %s pair %d->%d (%dB): %d/%d delivered", role, p.Src, p.Dst, p.MsgSize, p.Delivered, p.Total)
		if p.SendErr != "" {
			line += ", send err: " + p.SendErr
		}
		if p.RecvErr != "" {
			line += ", recv err: " + p.RecvErr
		}
		if p.DeadlineCancels > 0 {
			line += fmt.Sprintf(", %d deadline-cancelled recv(s)", p.DeadlineCancels)
		}
		b.WriteString(line + "\n")
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	return strings.TrimRight(b.String(), "\n")
}
