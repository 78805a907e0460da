package perftest

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// winShared is the measured-window state shared by the concurrent senders
// of a scenario: the window opens when the last sender finishes warmup and
// closes when the last sender finishes posting.
type winShared struct {
	start, end units.Time
	done       int
}

// putLoopFrame is one sender of the incast and multicore scenarios: the
// put_bw loop (warmup, measured iterations with batched polling, in-flight
// drain) against a shared measured window.
type putLoopFrame struct {
	cfg  *config.Config
	rand *rng.Rand // jitter stream for the bench-loop advances
	w    *uct.Worker
	ep   *uct.Ep
	opt  *Options
	st   *winShared
	// marks, when set, collects each measured iteration's completion
	// time — the flap-incast scenario splits the run into pre/dip/post
	// windows from them. Nil on the hot scenarios.
	marks *[]units.Time

	postF postSpinFrame
	pc    int
	i     int
}

func (f *putLoopFrame) Step(t *sim.Task) {
	cfg := f.cfg
	for {
		switch f.pc {
		case 0: // warmup loop head
			if f.i >= f.opt.Warmup {
				if t.Now() > f.st.start {
					// The window opens when the last sender finishes
					// warmup.
					f.st.start = t.Now()
				}
				f.i = 0
				f.pc = 3
				continue
			}
			f.pc = 1
			f.postF.start(t)
			return
		case 1:
			if (f.i+1)%cfg.Bench.PollBatch == 0 {
				f.i++
				f.pc = 0
				f.w.StartProgress(t)
				return
			}
			f.i++
			f.pc = 0
		case 3: // measured loop head
			if f.i >= f.opt.Iters {
				if t.Now() > f.st.end {
					f.st.end = t.Now()
				}
				f.pc = 6
				continue
			}
			f.pc = 4
			f.postF.start(t)
			return
		case 4:
			if (f.i+1)%cfg.Bench.PollBatch == 0 {
				f.pc = 5
				f.w.StartProgress(t)
				return
			}
			f.pc = 5
		case 5:
			t.Advance(cfg.SW.MeasUpdate.Sample(f.rand))
			t.Advance(cfg.SW.BenchLoop.Sample(f.rand))
			if f.marks != nil {
				*f.marks = append(*f.marks, t.Now())
			}
			f.i++
			f.pc = 3
		case 6: // drain the in-flight tail outside the window
			if f.ep.InFlight() > 0 {
				f.w.StartProgress(t)
				return
			}
			f.st.done++
			t.Return()
			return
		}
	}
}

// IncastResult reports the N-senders -> one-receiver congestion scenario.
type IncastResult struct {
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
}

// clampSenders resolves the senders argument of the incast-family
// scenarios: <= 0 (or more than the nodes available) selects every node
// but the receiver.
func clampSenders(sys *node.System, senders int) int {
	if senders <= 0 || senders > len(sys.Nodes)-1 {
		senders = len(sys.Nodes) - 1
	}
	return senders
}

// incastWindow is the sender machinery shared by the incast-family
// scenarios (IncastPutBw, OversubscribedPutBw): `senders` sender nodes
// (sys.Nodes[1..senders]) run the put_bw loop into node 0 concurrently
// and the system runs to completion. The measured window opens when the
// last sender finishes warmup and closes when the last sender finishes
// posting its measured iterations; each sender drains its in-flight tail
// outside the window. name prefixes the spawned tasks and target labels.
// The returned endpoints (sender side, receiver worker) expose the QP
// statistics the scenarios report.
func incastWindow(sys *node.System, senders int, opt Options, name string) (elapsed units.Time, senderEps []*uct.Ep, recvW *uct.Worker) {
	cfg := sys.Cfg
	recv := sys.Nodes[0]
	recvW = uct.NewWorker(recv, cfg)

	st := &winShared{}
	for s := 1; s <= senders; s++ {
		n := sys.Nodes[s]
		w := uct.NewWorker(n, cfg)
		ep := w.NewEp(opt.Mode, opt.SignalPeriod)
		epR := recvW.NewEp(opt.Mode, opt.SignalPeriod)
		uct.Connect(ep, epR)
		tgt := recv.Mem.Alloc(fmt.Sprintf("%s.target%d", name, s), uint64(max(opt.MsgSize, 64)), 64)
		ep.RemoteBuf = tgt.Base
		senderEps = append(senderEps, ep)

		msg := make([]byte, opt.MsgSize)
		f := &putLoopFrame{cfg: cfg, rand: n.Rand, w: w, ep: ep, opt: &opt, st: st}
		f.postF = postSpinFrame{w: w, ep: ep, kind: postPutAuto, strict: true, msg: msg}
		sys.K.SpawnTask(fmt.Sprintf("%s.sender%d", name, s), f)
	}
	sys.Run()
	if st.done != senders {
		panic(fmt.Sprintf("perftest: only %d of %d %s senders finished", st.done, senders, name))
	}
	return st.end - st.start, senderEps, recvW
}

// IncastPutBw runs the put_bw loop from `senders` sender nodes
// (sys.Nodes[1..senders]) into node 0 concurrently: the classic incast.
// All flows converge on the receiver's downlink switch port, whose
// serialization queue and credit backpressure the topology models;
// senders <= 0 selects every node but the receiver. With one sender it
// doubles as the uncontended baseline on the identical path.
func IncastPutBw(sys *node.System, senders int, opt Options) *IncastResult {
	opt.Defaults(sys.Cfg)
	senders = clampSenders(sys, senders)
	res := &IncastResult{Senders: senders, MsgSize: opt.MsgSize}
	res.Elapsed, _, _ = incastWindow(sys, senders, opt, "incast")

	res.Messages = senders * opt.Iters
	res.AggMsgRate = float64(res.Messages) / res.Elapsed.Seconds()
	res.PerSenderMsgRate = res.AggMsgRate / float64(senders)
	res.PerSenderBwMBs = res.PerSenderMsgRate * float64(opt.MsgSize) / 1e6
	res.MaxSwitchQueue = sys.Topo().MaxSwitchQueue()
	res.CreditStalls = sys.Topo().CreditStalls()
	return res
}

// String renders the result.
func (r *IncastResult) String() string {
	return fmt.Sprintf("incast put_bw: %d senders x %dB, %d msgs in %v -> %.0f msg/s/sender (%.1f MB/s/sender; max switch queue %d, %d credit stalls)",
		r.Senders, r.MsgSize, r.Messages, r.Elapsed, r.PerSenderMsgRate, r.PerSenderBwMBs, r.MaxSwitchQueue, r.CreditStalls)
}

// AllToAllResult reports the all-to-all congestion scenario.
type AllToAllResult struct {
	Nodes    int
	MsgSize  int
	Messages int
	Elapsed  units.Time
	// AggMsgRate is messages per second across the whole system.
	AggMsgRate float64
	// PerNodeMsgRate is the per-node injection average.
	PerNodeMsgRate float64
	MaxSwitchQueue int
	CreditStalls   uint64
}

// AllToAllPutBw runs opt.Iters rounds in which every node RDMA-writes one
// message to every other node, polling a completion every
// Bench.PollBatch posts — the uniform traffic matrix that loads every
// tier of a multi-switch topology (cross-leaf flows share leaf-spine
// links in the fat-tree).
func AllToAllPutBw(sys *node.System, opt Options) *AllToAllResult {
	opt.Defaults(sys.Cfg)
	cfg := sys.Cfg
	n := len(sys.Nodes)
	res := &AllToAllResult{Nodes: n, MsgSize: opt.MsgSize}

	workers := make([]*uct.Worker, n)
	for i := range workers {
		workers[i] = uct.NewWorker(sys.Nodes[i], cfg)
	}
	// eps[i][j] is node i's endpoint towards node j.
	eps := make([][]*uct.Ep, n)
	for i := range eps {
		eps[i] = make([]*uct.Ep, n)
		for j := range eps[i] {
			if i != j {
				eps[i][j] = workers[i].NewEp(opt.Mode, opt.SignalPeriod)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			uct.Connect(eps[i][j], eps[j][i])
			ti := sys.Nodes[j].Mem.Alloc(fmt.Sprintf("a2a.%d.%d", i, j), uint64(max(opt.MsgSize, 64)), 64)
			eps[i][j].RemoteBuf = ti.Base
			tj := sys.Nodes[i].Mem.Alloc(fmt.Sprintf("a2a.%d.%d", j, i), uint64(max(opt.MsgSize, 64)), 64)
			eps[j][i].RemoteBuf = tj.Base
		}
	}

	st := &winShared{}
	for i := 0; i < n; i++ {
		msg := make([]byte, opt.MsgSize)
		f := &a2aNodeFrame{cfg: cfg, rand: sys.Nodes[i].Rand, w: workers[i], me: i, n: n, eps: eps, opt: &opt, st: st}
		f.postF = postSpinFrame{w: workers[i], kind: postPutAuto, strict: true, msg: msg}
		sys.K.SpawnTask(fmt.Sprintf("a2a.node%d", i), f)
	}
	sys.Run()
	if st.done != n {
		panic(fmt.Sprintf("perftest: only %d of %d all-to-all nodes finished", st.done, n))
	}

	res.Messages = n * (n - 1) * opt.Iters
	res.Elapsed = st.end - st.start
	res.AggMsgRate = float64(res.Messages) / res.Elapsed.Seconds()
	res.PerNodeMsgRate = res.AggMsgRate / float64(n)
	res.MaxSwitchQueue = sys.Topo().MaxSwitchQueue()
	res.CreditStalls = sys.Topo().CreditStalls()
	return res
}

// a2aNodeFrame is one node of the all-to-all: rounds of one put to every
// peer with batched polling, then a per-peer in-flight drain.
type a2aNodeFrame struct {
	cfg  *config.Config
	rand *rng.Rand
	w    *uct.Worker
	me   int
	n    int
	eps  [][]*uct.Ep
	opt  *Options
	st   *winShared

	postF postSpinFrame
	pc    int
	r     int // round index (warmup, then measured)
	j     int // peer index within a round / drain
	retPc int // state to resume after the current round
	posts int
}

func (f *a2aNodeFrame) Step(t *sim.Task) {
	cfg := f.cfg
	for {
		switch f.pc {
		case 0: // warmup rounds head
			if f.r >= f.opt.Warmup {
				if t.Now() > f.st.start {
					f.st.start = t.Now()
				}
				f.r = 0
				f.pc = 4
				continue
			}
			f.retPc = 1
			f.j = 0
			f.pc = 2
		case 1:
			f.r++
			f.pc = 0
		case 4: // measured rounds head
			if f.r >= f.opt.Iters {
				if t.Now() > f.st.end {
					f.st.end = t.Now()
				}
				f.j = 0
				f.pc = 6
				continue
			}
			f.retPc = 5
			f.j = 0
			f.pc = 2
		case 5:
			t.Advance(cfg.SW.MeasUpdate.Sample(f.rand))
			t.Advance(cfg.SW.BenchLoop.Sample(f.rand))
			f.r++
			f.pc = 4
		case 2: // one round: put to every peer
			if f.j >= f.n {
				f.pc = f.retPc
				continue
			}
			if f.j == f.me {
				f.j++
				continue
			}
			f.pc = 3
			f.postF.ep = f.eps[f.me][f.j]
			f.postF.start(t)
			return
		case 3:
			f.posts++
			if f.posts%cfg.Bench.PollBatch == 0 {
				f.pc = 31
				f.w.StartProgress(t)
				return
			}
			f.j++
			f.pc = 2
		case 31:
			f.j++
			f.pc = 2
		case 6: // drain every peer's in-flight tail
			if f.j >= f.n {
				f.st.done++
				t.Return()
				return
			}
			if f.j == f.me {
				f.j++
				continue
			}
			if f.eps[f.me][f.j].InFlight() > 0 {
				f.w.StartProgress(t)
				return
			}
			f.j++
		}
	}
}

// String renders the result.
func (r *AllToAllResult) String() string {
	return fmt.Sprintf("all-to-all put_bw: %d nodes x %dB, %d msgs in %v -> %.0f msg/s aggregate (max switch queue %d, %d credit stalls)",
		r.Nodes, r.MsgSize, r.Messages, r.Elapsed, r.AggMsgRate, r.MaxSwitchQueue, r.CreditStalls)
}
