// Package mpi implements the top of the high-level protocol stack: an
// MPICH-CH4-style MPI library over ucp, with nonblocking point-to-point
// operations, a blocking progress engine, and the registered completion
// callbacks whose costs the paper's §5 breakdown attributes.
//
// Call structure mirrors MPICH over UCX: MPI_Isend decides how to execute
// the operation and calls ucp_tag_send_nb; MPI_Wait loops the progress
// engine over ucp_worker_progress; completions bubble up through the UCT →
// UCP → MPICH callback chain before the progress call returns (paper §5).
//
// Like the layers below, the blocking operations are resumable sim.Frame
// state machines: callers use the Start*/Last* forms. One task drives a
// Rank at a time.
//
// The §5 regions are scopes on the node's profiler (internal/profile),
// timed when the run selects them: mpi_isend and the nested
// ucp_tag_send_nb, the MPICH receive callback (mpich_recv_cb), and three
// scopes of MPI_Wait (mpi_wait_recv, each ucp_worker_progress call inside
// it, and the MPICH work after the successful one, mpich_after_progress).
// The wait scopes time receive waits only, so per-wait totals reconstruct
// from means and loop counts.
//
// MPI_Wait and MPI_Waitall test their requests before every
// ucp_worker_progress. After an empty round whose test still fails, they
// park through ucp.Worker.Park, which reaches uct's one park
// (uct.Worker.Park, whose package documentation has the rules), each
// skipped round costing its per-iteration share (MpichWaitLoop,
// MpichWaitallOp) above ucp's; under NoiseOn the wake draws those shares,
// in the spin's order, from the node's stream. A receive wait that times
// its ucp_worker_progress calls keeps spinning, since every skipped round
// would read the timer. The round a parked wait is woken for adds the
// rounds it skipped to WaitLoops and RecvWaitLoops, so every simulated
// value and counter is the spin's. A wait parked on a receive that another
// rank cancels (CancelRecv) is woken by the cancel, and pays the receive's
// MPICH callback itself when it sees it.
package mpi

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/profile"
	"breakband/internal/sim"
	"breakband/internal/ucp"
	"breakband/internal/uct"
)

// Request is an MPI request handle. It holds the ucp request it wraps,
// as MPICH keeps its request in the space UCX reserves in each ucp
// request, and it is the MPICH completion callback ucp runs (sendCallback,
// recvCallback): an operation allocates one object across both layers.
type Request struct {
	ucp  ucp.Request
	rank *Rank
	// ep is a receive's source endpoint, which the wait loops check for
	// failure; nil when the rank has no connection to the source.
	ep *ucp.Ep
	// task is the task that posted a receive, the one that runs its MPICH
	// callback.
	task   *sim.Task
	done   bool
	isRecv bool
}

// sendCallback and recvCallback are an MPI request as the MPICH callback
// that ucp runs when its send or receive completes.
type (
	sendCallback Request
	recvCallback Request
)

// Complete is the MPICH send-completion callback.
func (q *sendCallback) Complete(t *sim.Task) {
	r := q.rank
	t.Advance(r.Cfg.SW.MpichSendCB.Sample(r.Node.Rand))
	r.Stats.SendCallbacks++
	q.done = true
}

// Complete is the MPICH receive callback (paper Table 1: 47.99 ns).
func (q *recvCallback) Complete(t *sim.Task) {
	r := q.rank
	tok := r.Node.Prof.Begin(t, profile.MPICHRecvCB)
	t.Advance(r.Cfg.SW.MpichRecvCB.Sample(r.Node.Rand))
	r.Stats.RecvCallbacks++
	q.done = true
	r.Node.Prof.End(t, tok)
}

// Done reports completion (for test assertions; applications use Wait).
func (r *Request) Done() bool { return r.done }

// Err reports the failure that terminated the request — the MPI analogue of
// a non-MPI_SUCCESS status in MPI_Wait. Nil on success or while in flight.
// Requests fail when their endpoint's QP enters the error state: the send
// was flushed undelivered, or the posted receive was cancelled because the
// peer died.
func (r *Request) Err() error { return r.ucp.Err() }

// Data returns the payload of a completed receive.
func (r *Request) Data() []byte {
	if !r.done || !r.isRecv {
		return nil
	}
	return r.ucp.Data()
}

// Stats counts MPI-level events.
type Stats struct {
	Isends, Irecvs uint64
	Waits          uint64
	WaitLoops      uint64
	SendCallbacks  uint64
	RecvCallbacks  uint64
	// RecvWaits and RecvWaitLoops reconstruct per-wait progress totals
	// (Sum = mean x loops/waits) in the §5 methodology.
	RecvWaits     uint64
	RecvWaitLoops uint64
}

// Rank is one MPI process (one simulated core).
type Rank struct {
	ID     int
	Node   *node.Node
	Cfg    *config.Config
	Worker *ucp.Worker
	eps    map[int]*ucp.Ep
	// epList holds the connections in creation order so credit posting
	// iterates deterministically (map order would vary run to run).
	epList []*ucp.Ep

	Stats Stats

	prepF    prepFrame
	isendF   isendFrame
	waitF    waitFrame
	waitallF waitallFrame
	sendF    sendFrame
	recvF    recvFrame
}

// Comm is a communicator over a set of ranks.
type Comm struct {
	Ranks []*Rank
}

// tagFor packs (src, tag) so matching is pairwise like MPI's
// (communicator, source, tag) triple.
func tagFor(src int, tag int) uint64 {
	return uint64(src)<<32 | uint64(uint32(tag))
}

// NewComm builds one rank per node (rank i on nodes[i]) and fully connects
// them with the given post mode. It mirrors MPI_Init plus connection setup.
func NewComm(nodes []*node.Node, cfg *config.Config, mode uct.PostMode) *Comm {
	c := &Comm{}
	for i, n := range nodes {
		u := uct.NewWorker(n, cfg)
		w := ucp.NewWorker(u, cfg)
		r := &Rank{ID: i, Node: n, Cfg: cfg, Worker: w, eps: make(map[int]*ucp.Ep)}
		r.prepF.r = r
		r.isendF.r = r
		r.waitF.r = r
		r.waitallF.r = r
		r.sendF.r = r
		r.recvF.r = r
		c.Ranks = append(c.Ranks, r)
	}
	// Fully connect: one ep (and QP) per peer per rank.
	for i, a := range c.Ranks {
		for j, b := range c.Ranks {
			if i >= j {
				continue
			}
			ea := a.Worker.NewEp(mode)
			eb := b.Worker.NewEp(mode)
			uct.Connect(ea.UctEp, eb.UctEp)
			a.eps[j] = ea
			b.eps[i] = eb
			a.epList = append(a.epList, ea)
			b.epList = append(b.epList, eb)
		}
	}
	return c
}

// StartPreparePostedRecvs begins posting n receive credits on every
// connection, in connection-creation order; run it on each rank before
// traffic flows.
func (r *Rank) StartPreparePostedRecvs(t *sim.Task, n int) {
	r.prepF.pc = 0
	r.prepF.i = 0
	r.prepF.n = n
	t.Call(&r.prepF)
}

type prepFrame struct {
	r    *Rank
	pc   int
	i, n int
}

func (f *prepFrame) Step(t *sim.Task) {
	r := f.r
	if f.i >= len(r.epList) {
		t.Return()
		return
	}
	ep := r.epList[f.i]
	f.i++
	ep.UctEp.StartPostRecvs(t, f.n)
}

// StartIsend begins a nonblocking standard send of data to rank dst; the
// request is reported by LastIsend once the frame returns.
func (r *Rank) StartIsend(t *sim.Task, dst int, tag int, data []byte) {
	f := &r.isendF
	f.pc = 0
	f.dst = dst
	f.tag = tag
	f.data = data
	t.Call(f)
}

// LastIsend reports the request created by the most recently completed
// isend frame.
func (r *Rank) LastIsend() *Request { return r.isendF.res }

type isendFrame struct {
	r        *Rank
	pc       int
	dst, tag int
	data     []byte

	ep       *ucp.Ep
	req      *Request
	isendTok profile.Token
	ucpTok   profile.Token
	res      *Request
}

func (f *isendFrame) Step(t *sim.Task) {
	r := f.r
	prof := r.Node.Prof
	switch f.pc {
	case 0:
		ep, ok := r.eps[f.dst]
		if !ok {
			panic(fmt.Sprintf("mpi: rank %d has no connection to %d", r.ID, f.dst))
		}
		f.ep = ep
		r.Stats.Isends++
		req := &Request{rank: r}
		f.req = req

		f.isendTok = prof.Begin(t, profile.MPIIsend)
		// MPICH-side work: datatype/contiguity checks, choosing the path.
		t.Advance(r.Cfg.SW.MpiIsend.Sample(r.Node.Rand))
		f.ucpTok = prof.Begin(t, profile.UCPTagSendNB)
		f.pc = 1
		ep.StartTagSend(t, &req.ucp, tagFor(r.ID, f.tag), f.data, (*sendCallback)(req))
	case 1:
		if err := f.ep.LastSend(); err != nil {
			// Initiation failed (the endpoint's QP is in the error
			// state): the request terminates immediately with the error
			// instead of panicking — MPI_Wait reports it as a status.
			f.req.done = true
		}
		prof.End(t, f.ucpTok)
		prof.End(t, f.isendTok)
		f.res = f.req
		f.req = nil
		f.data = nil
		t.Return()
	}
}

// Irecv starts a nonblocking receive matching (src, tag). It is pause-free,
// so it needs no Start form.
func (r *Rank) Irecv(t *sim.Task, src int, tag int) *Request {
	r.Stats.Irecvs++
	req := &Request{rank: r, isRecv: true, ep: r.eps[src], task: t}
	t.Advance(r.Cfg.SW.MpiIrecv.Sample(r.Node.Rand))
	r.Worker.TagRecvNB(t, &req.ucp, tagFor(src, tag), (*recvCallback)(req))
	// An unexpected message may have completed it synchronously.
	if req.ucp.Completed() {
		req.done = true
		return req
	}
	// Late post against a dead peer: short-circuit with the endpoint error
	// instead of waiting for a match that will never arrive (mirrors the
	// CQEFlushErr contract for posts against an errored QP). A message
	// already delivered before the failure still matches above.
	r.checkFailed(t, req)
	return req
}

// checkFailed tests a pending request against its endpoint's health and
// terminates it if the transport has failed: a posted receive whose source
// endpoint errored is cancelled (the MPICH receive callback still runs, so
// the request machinery observes completion). A receive another task
// cancelled (CancelRecv) gets its MPICH callback here, on the waiting
// task. It reports whether the request terminated. A healthy endpoint
// costs a pointer test and schedules nothing.
func (r *Rank) checkFailed(t *sim.Task, req *Request) bool {
	if req.done {
		return true
	}
	if req.ucp.Completed() {
		(*recvCallback)(req).Complete(t)
		return true
	}
	if !req.isRecv || req.ep == nil || req.ep.Err() == nil {
		return false
	}
	r.Worker.CancelRecv(t, &req.ucp, req.ep.Err())
	req.done = true
	return true
}

// CheckFailed is the public form of the wait loop's failure test, for
// callers that drive the progress engine themselves (chaos harnesses,
// failure detectors): it terminates a pending receive whose source endpoint
// has errored and reports whether the request is finished (by success or
// failure).
func (r *Rank) CheckFailed(t *sim.Task, req *Request) bool {
	return r.checkFailed(t, req)
}

// CancelRecv abandons a pending receive with the given error, as when an
// application-level deadline expires while the peer is unreachable. The
// request terminates (Err reports err) and its buffer slot is released; a
// receive that already completed is left alone and false is returned. The
// receive's MPICH callback runs on the task that posted it: at once when
// that task cancels, and otherwise in its wait, which pays the callback
// on its own clock when it sees the cancel, while the canceller's clock
// stays where it is.
func (r *Rank) CancelRecv(t *sim.Task, req *Request, err error) bool {
	if req.done || !req.isRecv {
		return false
	}
	if t != req.task {
		return r.Worker.WithdrawRecv(&req.ucp, err)
	}
	return r.Worker.CancelRecv(t, &req.ucp, err)
}

// StartWait begins blocking until req completes, driving the progress
// engine (MPI_Wait).
func (r *Rank) StartWait(t *sim.Task, req *Request) {
	r.waitF.pc = 0
	r.waitF.req = req
	t.Call(&r.waitF)
}

type waitFrame struct {
	r   *Rank
	pc  int
	req *Request

	// measured: a receive wait, the only kind the wait scopes time.
	measured bool
	// polled: the loop has progressed, so it may park after an empty round.
	polled  bool
	waitTok profile.Token
	progTok profile.Token
}

// begin opens scope s on a receive wait; on any other wait it returns the
// zero Token.
func (f *waitFrame) begin(t *sim.Task, s profile.Scope) profile.Token {
	if !f.measured {
		return profile.Token{}
	}
	return f.r.Node.Prof.Begin(t, s)
}

func (f *waitFrame) Step(t *sim.Task) {
	r := f.r
	for {
		switch f.pc {
		case 0:
			r.Stats.Waits++
			f.measured = f.req.isRecv
			f.polled = false
			if f.measured {
				r.Stats.RecvWaits++
			}
			f.waitTok = f.begin(t, profile.MPIWaitRecv)
			// Entry/exit bookkeeping (request inspection, state machine).
			t.Advance(r.Cfg.SW.MpichWaitEnt.Sample(r.Node.Rand))
			f.pc = 1
		case 1:
			if r.checkFailed(t, f.req) {
				f.pc = 3
				continue
			}
			if f.polled && !(f.measured && r.Node.Prof.Times(profile.UCPWorkerProgress)) &&
				r.Worker.Park(t, r.Cfg.SW.MpichWaitLoop) {
				f.pc = 4
				return
			}
			r.Stats.WaitLoops++
			if f.measured {
				r.Stats.RecvWaitLoops++
			}
			t.Advance(r.Cfg.SW.MpichWaitLoop.Sample(r.Node.Rand))
			f.progTok = f.begin(t, profile.UCPWorkerProgress)
			f.pc = 2
			r.Worker.StartProgress(t)
			return
		case 2:
			r.Node.Prof.End(t, f.progTok)
			f.polled = true
			f.pc = 1
		case 4: // woken: the rounds run parked, the last one's poll still to come
			n := r.Worker.StartWokenProgress(t)
			r.Stats.WaitLoops += n
			if f.measured {
				r.Stats.RecvWaitLoops += n
			}
			f.pc = 2
			return
		case 3:
			// MPICH work after the successful ucp_worker_progress (paper
			// §6: 36.89 ns).
			afterTok := f.begin(t, profile.MPICHAfterProgress)
			t.Advance(r.Cfg.SW.MpichAfterPrg.Sample(r.Node.Rand))
			r.Node.Prof.End(t, afterTok)
			r.Node.Prof.End(t, f.waitTok)
			f.req = nil
			t.Return()
			return
		}
	}
}

// StartWaitall begins blocking until all requests complete (MPI_Waitall).
// MPICH executes its progress engine until every listed operation completes.
func (r *Rank) StartWaitall(t *sim.Task, reqs []*Request) {
	r.waitallF.pc = 0
	r.waitallF.reqs = reqs
	t.Call(&r.waitallF)
}

type waitallFrame struct {
	r    *Rank
	pc   int
	reqs []*Request
	// polled: the loop has progressed, so it may park after an empty round.
	polled bool
}

func (f *waitallFrame) Step(t *sim.Task) {
	r := f.r
	for {
		switch f.pc {
		case 0:
			t.Advance(r.Cfg.SW.MpichWaitEnt.Sample(r.Node.Rand))
			f.polled = false
			f.pc = 1
		case 1:
			remaining := 0
			for _, q := range f.reqs {
				if !r.checkFailed(t, q) {
					remaining++
				}
			}
			if remaining == 0 {
				f.reqs = nil
				t.Return()
				return
			}
			if f.polled && r.Worker.Park(t, r.Cfg.SW.MpichWaitallOp) {
				f.pc = 2
				return
			}
			r.Stats.WaitLoops++
			// Per-operation bookkeeping share of the waitall loop.
			t.Advance(r.Cfg.SW.MpichWaitallOp.Sample(r.Node.Rand))
			f.pc = 3
			r.Worker.StartProgress(t)
			return
		case 2: // woken: the rounds run parked, the last one's poll still to come
			r.Stats.WaitLoops += r.Worker.StartWokenProgress(t)
			f.pc = 3
			return
		case 3:
			f.polled = true
			f.pc = 1
		}
	}
}

// StartSend begins a blocking standard send (Isend + Wait), as used by the
// OSU latency benchmark.
func (r *Rank) StartSend(t *sim.Task, dst int, tag int, data []byte) {
	r.sendF.pc = 0
	r.sendF.dst = dst
	r.sendF.tag = tag
	r.sendF.data = data
	t.Call(&r.sendF)
}

type sendFrame struct {
	r        *Rank
	pc       int
	dst, tag int
	data     []byte
}

func (f *sendFrame) Step(t *sim.Task) {
	r := f.r
	switch f.pc {
	case 0:
		f.pc = 1
		r.StartIsend(t, f.dst, f.tag, f.data)
	case 1:
		f.pc = 2
		r.StartWait(t, r.LastIsend())
	case 2:
		f.data = nil
		t.Return()
	}
}

// StartRecv begins a blocking receive (Irecv + Wait); the payload is
// reported by LastRecv once the frame returns.
func (r *Rank) StartRecv(t *sim.Task, src int, tag int) {
	r.recvF.pc = 0
	r.recvF.src = src
	r.recvF.tag = tag
	t.Call(&r.recvF)
}

// LastRecv reports the payload received by the most recently completed recv
// frame.
func (r *Rank) LastRecv() []byte { return r.recvF.data }

type recvFrame struct {
	r        *Rank
	pc       int
	src, tag int
	req      *Request
	data     []byte
}

func (f *recvFrame) Step(t *sim.Task) {
	r := f.r
	switch f.pc {
	case 0:
		f.req = r.Irecv(t, f.src, f.tag)
		f.pc = 1
		r.StartWait(t, f.req)
	case 1:
		f.data = f.req.Data()
		f.req = nil
		t.Return()
	}
}
