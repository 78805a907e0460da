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
// error: one a sender's post returned, or one its drain retired.
type winShared struct {
	start, end units.Time
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

// sender is one put_bw source: its own worker, the endpoints one iteration
// of its loop writes to (one QP into the receiver, or an all-to-all node's
// one QP per peer), the payload it writes, and the jitter stream of its
// benchmark loop.
type sender struct {
	n    *node.Node
	w    *uct.Worker
	eps  []*uct.Ep
	msg  []byte
	rand *rng.Rand
	// am, when nonzero, makes the sender a sequence-stamped stream: each
	// post stamps msg with the next sequence number, seq, and sends it as
	// an active message with this id instead of an RDMA write.
	am  uint8
	seq int
	// mark, when set, collects each measured iteration's completion time
	// in marks — the flap-incast scenario splits the run into pre/dip/post
	// windows from them. Off on the hot scenarios.
	mark  bool
	marks []units.Time
	// done is set once the sender's loop has drained its tail; the loop
	// then wakes waiter, when set, the worker whose wait tests done (the
	// lossy stream's verifier).
	done   bool
	waiter *uct.Worker
}

// post begins the sender's next post on ep: an RDMA write of msg, or the
// stream's next sequence-stamped active message when am is set.
func (s *sender) post(t *sim.Task, ep *uct.Ep) {
	if s.am == 0 {
		ep.StartPut(t, s.msg)
		return
	}
	seqStamp(s.msg, s.seq)
	s.seq++
	ep.StartAm(t, s.am, s.msg)
}

// err reports the first error among the sender's endpoints, nil while
// every one of its QPs is healthy.
func (s *sender) err() error {
	for _, ep := range s.eps {
		if ep.Err != nil {
			return ep.Err
		}
	}
	return nil
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
		ep := w.NewEp(opt.Mode, signalPeriod)
		uct.Connect(ep, recvW.NewEp(opt.Mode, signalPeriod))
		tgt := dst.Mem.Alloc(fmt.Sprintf("%s.target%d", name, i), uint64(max(opt.MsgSize, 64)), 64)
		ep.RemoteBuf = tgt.Base
		snd[i] = &sender{n: n, w: w, eps: []*uct.Ep{ep}, msg: make([]byte, opt.MsgSize), rand: n.Rand}
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
	for i, s := range snd {
		if !s.done {
			panic(fmt.Sprintf("perftest: %s sender %d of %d never finished", name, i, len(snd)))
		}
	}
	return st
}

// putLoopFrame is the put_bw loop of one sender: the profiler calibration
// when a scope is selected, warmup iterations, the trace clear when the
// sender's node is tapped, the measured iterations, then an in-flight drain
// outside the measured window (at once after a failed post). An iteration
// posts once to each of the sender's endpoints in turn. The loop polls one
// completion every pollBatch posts, counted from the start of each phase,
// and pays the measurement update and loop overhead (and takes the flap
// mark) once per measured iteration. The calibration and the trace clear
// act on the sender's own node. A QP that fails while the tail drains
// retires its sends through error completions, so the drain ends on it
// too, and the loop records its error.
type putLoopFrame struct {
	cfg *config.Config
	s   *sender
	opt *Options
	st  *winShared

	pc    int
	i     int // iteration within the phase
	j     int // endpoint within the iteration
	posts int // posts within the phase
}

func (f *putLoopFrame) Step(t *sim.Task) {
	cfg := f.cfg
	s := f.s
	for {
		switch f.pc {
		case 0:
			s.n.Prof.CalibrateIfSelected(t)
			f.pc = 1
		case 1: // warmup loop head
			if f.i >= f.opt.Warmup {
				f.pc = 3
				continue
			}
			f.pc = 2
			s.post(t, s.eps[f.j])
			return
		case 2: // after a warmup post: batched poll
			if f.st.postFailed(s.eps[f.j]) {
				f.pc = 8
				continue
			}
			if f.j++; f.j == len(s.eps) {
				f.j = 0
				f.i++
			}
			f.pc = 1
			if f.posts++; f.posts%pollBatch == 0 {
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
			f.i, f.posts = 0, 0
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
			s.post(t, s.eps[f.j])
			return
		case 6: // after a measured post: batched poll
			if f.st.postFailed(s.eps[f.j]) {
				f.pc = 8
				continue
			}
			f.pc = 5
			if f.j++; f.j == len(s.eps) {
				f.j = 0
				f.pc = 7
			}
			if f.posts++; f.posts%pollBatch == 0 {
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
			if err := s.err(); err != nil && f.st.err == nil {
				f.st.err = err
			}
			s.done = true
			if s.waiter != nil {
				s.waiter.Wake()
			}
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
	// Err is the first transport error a post returned or the drain
	// retired, nil on a complete run; the other fields are then partial.
	Err error
}

// AllToAllPutBw runs opt.Iters rounds in which every node RDMA-writes one
// message to every other node — the uniform traffic matrix that loads
// every tier of a multi-switch topology (cross-leaf flows share leaf-spine
// links in the fat-tree). Each node is one put_bw sender whose iteration
// posts to its peers in node order, so it polls a completion every
// pollBatch posts like every other sender.
func AllToAllPutBw(sys *node.System, opt Options) *AllToAllResult {
	opt.Defaults()
	n := len(sys.Nodes)
	res := &AllToAllResult{Nodes: n, MsgSize: opt.MsgSize}

	snd := make([]*sender, n)
	for i, nd := range sys.Nodes {
		snd[i] = &sender{n: nd, w: uct.NewWorker(nd, sys.Cfg), msg: make([]byte, opt.MsgSize), rand: nd.Rand}
	}
	// eps[i][j] is node i's endpoint towards node j.
	eps := make([][]*uct.Ep, n)
	for i, s := range snd {
		eps[i] = make([]*uct.Ep, n)
		for j := range eps[i] {
			if i != j {
				eps[i][j] = s.w.NewEp(opt.Mode, signalPeriod)
				s.eps = append(s.eps, eps[i][j])
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
	st := runPutLoops(sys, snd, opt, "a2a")

	res.Err = st.err
	res.Messages = n * (n - 1) * opt.Iters
	res.Elapsed = st.end - st.start
	res.AggMsgRate = float64(res.Messages) / res.Elapsed.Seconds()
	res.PerNodeMsgRate = res.AggMsgRate / float64(n)
	res.MaxSwitchQueue = sys.Topo().MaxSwitchQueue()
	res.CreditStalls = sys.Topo().CreditStalls()
	return res
}

// String renders the result.
func (r *AllToAllResult) String() string {
	return fmt.Sprintf("all-to-all put_bw: %d nodes x %dB, %d msgs in %v -> %.0f msg/s aggregate (max switch queue %d, %d credit stalls)",
		r.Nodes, r.MsgSize, r.Messages, r.Elapsed, r.AggMsgRate, r.MaxSwitchQueue, r.CreditStalls)
}
