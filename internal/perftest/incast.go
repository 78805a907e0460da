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
// closes when the last sender finishes posting. err is the first transport
// error any sender's post returned.
type winShared struct {
	start, end units.Time
	done       int
	err        error
}

// postFailed reports whether the post that just returned on ep failed, and
// records the first such error. Busy posts never get here (StartPut
// retries them), so an error is a transport failure: the sender stops
// posting and drains.
func (st *winShared) postFailed(ep *uct.Ep) bool {
	err := ep.LastPost()
	if err != nil && st.err == nil {
		st.err = err
	}
	return err != nil
}

// sender is one put_bw source: its own worker and QP into the receiver, the
// payload it writes, and the jitter stream of its benchmark loop.
type sender struct {
	n    *node.Node
	w    *uct.Worker
	ep   *uct.Ep
	msg  []byte
	rand *rng.Rand
	// mark, when set, collects each measured iteration's completion time
	// in marks — the flap-incast scenario splits the run into pre/dip/post
	// windows from them. Off on the hot scenarios.
	mark  bool
	marks []units.Time
}

// connectSenders gives every node of srcs (a node may repeat: one sender
// per simulated core) its own worker and QP. All the QPs connect into one
// receiver worker on dst, which is returned, and each sender gets its own
// max(MsgSize, 64)-byte target on dst. name labels the targets.
func connectSenders(sys *node.System, srcs []*node.Node, dst *node.Node, opt Options, name string) ([]*sender, *uct.Worker) {
	cfg := sys.Cfg
	recvW := uct.NewWorker(dst, cfg)
	snd := make([]*sender, len(srcs))
	for i, n := range srcs {
		w := uct.NewWorker(n, cfg)
		ep := w.NewEp(opt.Mode, opt.SignalPeriod)
		uct.Connect(ep, recvW.NewEp(opt.Mode, opt.SignalPeriod))
		tgt := dst.Mem.Alloc(fmt.Sprintf("%s.target%d", name, i), uint64(max(opt.MsgSize, 64)), 64)
		ep.RemoteBuf = tgt.Base
		snd[i] = &sender{n: n, w: w, ep: ep, msg: make([]byte, opt.MsgSize), rand: n.Rand}
	}
	return snd, recvW
}

// runPutLoops runs the put_bw loop on every sender concurrently until the
// system drains, and returns the shared measured window. name prefixes the
// spawned tasks.
func runPutLoops(sys *node.System, snd []*sender, opt Options, name string) *winShared {
	st := &winShared{}
	for i, s := range snd {
		sys.K.SpawnTask(fmt.Sprintf("%s.sender%d", name, i), &putLoopFrame{cfg: sys.Cfg, s: s, opt: &opt, st: st})
	}
	sys.Run()
	if st.done != len(snd) {
		panic(fmt.Sprintf("perftest: only %d of %d %s senders finished", st.done, len(snd), name))
	}
	return st
}

// putLoopFrame is the put_bw loop of one sender: the profiler calibration
// when a scope is selected, warmup posts, the trace clear when the
// sender's node is tapped, the measured injection loop with batched
// polling, then an in-flight drain outside the measured window (at once
// after a failed post). The calibration and the trace clear act on the
// sender's own node.
type putLoopFrame struct {
	cfg *config.Config
	s   *sender
	opt *Options
	st  *winShared

	pc int
	i  int
}

func (f *putLoopFrame) Step(t *sim.Task) {
	cfg := f.cfg
	s := f.s
	for {
		switch f.pc {
		case 0:
			s.n.Prof.CalibrateIfSelected(t, cfg.Prof.CalibrationSamples)
			f.pc = 1
		case 1: // warmup loop head
			if f.i >= f.opt.Warmup {
				f.pc = 3
				continue
			}
			f.pc = 2
			s.ep.StartPut(t, s.msg)
			return
		case 2: // after a warmup post: batched poll
			if f.st.postFailed(s.ep) {
				f.pc = 8
				continue
			}
			f.i++
			f.pc = 1
			if f.i%cfg.Bench.PollBatch == 0 {
				s.w.StartProgress(t)
				return
			}
		case 3:
			// The analyzer is fed by link events: settle the lazy clock
			// so every TLP up to the task's current time is recorded (and
			// cleared) before the measured window opens.
			f.pc = 4
			if s.n.Tap != nil && t.Pause() {
				return
			}
		case 4:
			if s.n.Tap != nil {
				s.n.Tap.Clear()
			}
			if t.Now() > f.st.start {
				// The window opens when the last sender finishes warmup.
				f.st.start = t.Now()
			}
			f.i = 0
			f.pc = 5
		case 5: // measured loop head
			if f.i >= f.opt.Iters {
				if t.Now() > f.st.end {
					f.st.end = t.Now()
				}
				f.pc = 8
				continue
			}
			f.pc = 6
			s.ep.StartPut(t, s.msg)
			return
		case 6: // after a measured post: batched poll
			if f.st.postFailed(s.ep) {
				f.pc = 8
				continue
			}
			f.pc = 7
			if (f.i+1)%cfg.Bench.PollBatch == 0 {
				s.w.StartProgress(t)
				return
			}
		case 7:
			// Timestamp + injection-rate measurement update, then the
			// residual loop logic.
			t.Advance(cfg.SW.MeasUpdate.Sample(s.rand))
			t.Advance(cfg.SW.BenchLoop.Sample(s.rand))
			if s.mark {
				s.marks = append(s.marks, t.Now())
			}
			f.i++
			f.pc = 5
		case 8: // drain the in-flight tail outside the window
			f.pc = 9
			s.w.StartFlush(t)
			return
		case 9:
			f.st.done++
			t.Return()
			return
		}
	}
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
	// Err is the first transport error a post returned, nil on a complete
	// run; the other fields are partial when it is set.
	Err error
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
		f := &a2aNodeFrame{cfg: cfg, rand: sys.Nodes[i].Rand, w: workers[i], me: i, n: n, eps: eps,
			msg: make([]byte, opt.MsgSize), opt: &opt, st: st}
		sys.K.SpawnTask(fmt.Sprintf("a2a.node%d", i), f)
	}
	sys.Run()
	if st.done != n {
		panic(fmt.Sprintf("perftest: only %d of %d all-to-all nodes finished", st.done, n))
	}

	res.Err = st.err
	res.Messages = n * (n - 1) * opt.Iters
	res.Elapsed = st.end - st.start
	res.AggMsgRate = float64(res.Messages) / res.Elapsed.Seconds()
	res.PerNodeMsgRate = res.AggMsgRate / float64(n)
	res.MaxSwitchQueue = sys.Topo().MaxSwitchQueue()
	res.CreditStalls = sys.Topo().CreditStalls()
	return res
}

// a2aNodeFrame is one node of the all-to-all: rounds of one put to every
// peer with batched polling, then an in-flight drain across every peer (at
// once after a failed post).
type a2aNodeFrame struct {
	cfg  *config.Config
	rand *rng.Rand
	w    *uct.Worker
	me   int
	n    int
	eps  [][]*uct.Ep
	msg  []byte
	opt  *Options
	st   *winShared

	pc    int
	r     int // round index (warmup, then measured)
	j     int // peer index within a round
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
			f.eps[f.me][f.j].StartPut(t, f.msg)
			return
		case 3:
			if f.st.postFailed(f.eps[f.me][f.j]) {
				f.pc = 6
				continue
			}
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
			f.pc = 7
			f.w.StartFlush(t)
			return
		case 7:
			f.st.done++
			t.Return()
			return
		}
	}
}

// String renders the result.
func (r *AllToAllResult) String() string {
	return fmt.Sprintf("all-to-all put_bw: %d nodes x %dB, %d msgs in %v -> %.0f msg/s aggregate (max switch queue %d, %d credit stalls)",
		r.Nodes, r.MsgSize, r.Messages, r.Elapsed, r.AggMsgRate, r.MaxSwitchQueue, r.CreditStalls)
}
