// Package uct implements the low-level communication protocol (LLP): a
// UCT-style transport layer that drives the NIC directly, mirroring UCX's
// rc_mlx5 data path.
//
// An LLP_post executes the paper's §4.1 sequence: prepare the message
// descriptor, a store memory barrier, the DoorBell-counter increment, a
// second store barrier, and the hand-off of the descriptor to the NIC: a
// PIO copy of the 64-byte descriptor, payload inline, to device memory, or
// a DoorBell after which the NIC DMA-reads the descriptor and, for a
// buffered copy, the payload. One frame runs it on every descriptor path.
// An LLP_prog reads one completion queue entry behind a load memory
// barrier. Busy posts (attempts against a full transmit queue) fail fast
// with ErrNoResource, exactly the semantic the paper's injection model
// builds on.
//
// A post's size picks its path, as UCX selects by size: the payload rides
// inline up to mlx.InlineMax bytes on a PIOInline or DoorbellInline
// endpoint, and anything larger, or any payload on a DoorbellGather
// endpoint, takes the buffered copy. StartPut and StartAm are the post of
// the perftest benchmarks and the workload injector, and retry a busy post
// after one worker progress. TryAm posts once and leaves a busy post to
// the caller, for ucp, which queues its own.
// StartProgressUntil progresses a worker until a predicate holds, testing
// it before every poll; the benchmarks wait for their messages with it.
// StartFlush is that loop until no endpoint has a send in flight, as UCX's
// uct_iface_flush does; the benchmarks drain their tails with it.
// StartPostRecvs posts receive credits one at a time, each visible to
// deliveries from its own post instant; progress reposts the credits its
// receives consumed through it, on an empty poll or once replenishBatch
// are owed.
//
// A bcopy post memcpy's its payload into a staging slot of registered
// memory, from which the NIC DMA-reads it (paper §2, steps 2-3). Each
// endpoint reserves one slot per send-queue entry and hands them out from
// a LIFO free list, like UCX's bounce-buffer mpool: a post owns its slot
// until the CQE that retires it is polled, and the next post reuses the
// slot freed last. The host backs a slot's page only once it is written
// (internal/memsim), so an endpoint costs the pages of the most gather
// sends it ever had in flight at once. Its completion rings are as deep as
// the completions that can be outstanding in them, SQDepth and RQDepth
// entries (see nic.CreateQP), so however many completions a run writes
// they back at most 8 and 32 KiB.
//
// Every post attempt, the §4.1 stages of an inline post (md_setup,
// barrier_md, barrier_dbc, and pio_copy on the PIO path) and every poll
// begin their scope on the node's profiler (internal/profile), which times
// only the scope selected for the run. A post attempt records as llp_post
// or busy_post, a poll as llp_prog or empty_poll.
//
// # Parked polling
//
// Every idle wait loop in the stack spins over one worker's poll: uct's
// busy-post retry (behind StartPut and StartAm) and its wait loop
// StartProgressUntil, ucp's StartProgressUntil (internal/ucp), and MPI_Wait
// and MPI_Waitall (internal/mpi). A round tests the loop's exit condition,
// pays the costs of the layers above the poll, and polls: the load barrier
// (LLPProgBarrier), the CQ reads, and on an empty poll the failed check
// (LLPProgFailChk). above is the layers' share of the round: BusyPost in
// the retry, nothing in a uct wait, UcpProgress in a ucp wait,
// MpichWaitLoop + UcpProgress in MPI_Wait and MpichWaitallOp + UcpProgress
// in MPI_Waitall. Spinning through a round costs one kernel event.
// Instead, after an empty round the loop re-tests its exit condition and,
// while it still fails, parks its task (Park, sim.Task.Park) with a memory
// write watch on each endpoint's next send-CQ and receive-CQ slot. The
// first write that makes one of those slots valid wakes the task at the
// first skipped poll that sees the write, where the task resumes its loop:
// StartWokenProgress adds the j rounds run parked to Progresses and j-1 to
// EmptyPolls, each layer adds j to its own per-round counters (BusyPosts
// in the retry, MPI's WaitLoops), and the j-th poll reads the CQs for
// real. Every simulated time, counter and draw is therefore the spin's,
// with one event per wait instead of one per round. An empty poll reposts
// every receive credit its worker owes, so the skipped polls repost none.
//
// Under NoiseOff every round takes the mean period P = above +
// LLPProgBarrier + LLPProgFailChk, and the skipped polls read the CQs at
// p1 + (j-1)*P, p1 being the first skipped round's CQ read: the wake
// computes j in closed form. Under NoiseOn each cost is a draw, and the
// draws define simulated time, so the park records the task's clock and
// the wake replays the skipped rounds: it draws each round's costs from the
// worker's stream in the spin's order (above, in the order the layers pay
// them, then LLPProgBarrier; LLPProgFailChk after the CQ read) up to the
// first poll that sees the change. The woken round skips the draws the
// replay made: its layers do not pay above again, and its poll starts at
// the CQ read. A parked task that is cancelled first draws the rounds its
// spin would have drawn by the cancel, so its worker's stream stands where
// the spin's would.
//
// An exit test may also read what another task changes: a peer's failure,
// a receive the peer cancels. That task calls Wake on the parked worker
// right after the change, which resumes the loop like a CQ write: that
// round's test is the first the spin runs after the change.
// ucp.Worker.CancelRecv wakes the worker whose receive it cancels; osu's
// failing sender wakes its receiver, and am_lat's and the lossy stream's
// failing side its peer.
//
// The tie rule. A change landing on a skipped poll's exact instant is seen
// by the spin's poll there when the change was queued before the spin
// queued that poll's resume: at the park for the first skipped poll, at
// the previous skipped poll's CQ read for the others. The park takes its
// place in the kernel's scheduling order (sim.Kernel.Mark), and the wake
// asks where the change was queued (sim.Kernel.Scheduled), so both noise
// levels resolve a tie exactly, whatever the change's lead: a CQ write's,
// or a Wake's, which is the waking task's own. A change queued at the very
// instant of the previous skipped poll's read is taken as queued after it.
// The woken poll's resume, too, goes where the spin would have queued it
// (sim.Task.WakeAt, sim.Kernel.AtArgAsOf): ahead of any event at that
// instant queued after that place, such as a second change landing on the
// woken poll after the first one woke the loop. A loop therefore parks
// whatever the CQ writes' leads: over an integrated NIC's 10 ns PCIeProp,
// shorter than every round, too.
//
// A loop parks only when all of these hold, each read from its inputs:
//
//   - under NoiseOn, every cost the replay draws comes from the worker's
//     stream, and the worker is the only one bound to that stream
//     (node.Node.Bound: NewWorker binds the node's stream, SetRand moves
//     the binding), so nothing draws from it between park and wake. The
//     ucp and MPI waits draw their layers' costs from the node's stream,
//     so they park only while their worker is bound to it alone;
//   - its node's profiler times no scope a skipped round opens
//     (profile.Profiler.Times): llp_prog and empty_poll in every loop,
//     llp_post and busy_post in the busy-post retry, ucp_worker_progress
//     in a measured MPI receive wait (checked by the layer that opens it).
//     A timed scope reads the timer, which the skipped rounds would have
//     to replay; any other scope reads no timer in a skipped round;
//   - the round just finished retired nothing and, in ucp, posted or
//     failed no pending send, and the loop's exit test failed again since;
//   - no watched slot is already valid: a completion that landed after the
//     round's CQ reads (while its empty poll reposted receive credits, say)
//     is left for the next poll to see.
//
// # Execution model
//
// The data path is written as resumable sim.Frame state machines driven by a
// sim.Task, so steady-state traffic runs to completion on the kernel with no
// goroutine handoffs. Callers use the Start* methods plus the Last* result
// getters, read once the started frame has returned. Every frame is
// preallocated on its owning Worker or Ep, so the steady state
// allocates nothing; the corollary is that a Worker and each Ep may be
// driven by at most one task at a time.
package uct

import (
	"encoding/binary"
	"errors"
	"fmt"

	"breakband/internal/arena"
	"breakband/internal/config"
	"breakband/internal/fifo"
	"breakband/internal/mlx"
	"breakband/internal/nic"
	"breakband/internal/node"
	"breakband/internal/profile"
	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/trace"
	"breakband/internal/units"
)

// ErrNoResource is returned by a post against a full transmit queue — the
// paper's "busy" post.
var ErrNoResource = errors.New("uct: no resource (transmit queue full)")

// PostMode selects the descriptor-delivery path (paper §2).
type PostMode int

// Post modes.
const (
	// PIOInline: the CPU PIO-copies the descriptor with the payload
	// inline; no NIC DMA reads (the paper's fast path for small
	// messages).
	PIOInline PostMode = iota
	// DoorbellInline: the descriptor (payload still inline) is written to
	// the send queue in host memory and the 8-byte DoorBell is rung; the
	// NIC DMA-reads the descriptor (one PCIe round trip).
	DoorbellInline
	// DoorbellGather: descriptor and payload are both fetched by the NIC
	// (two PCIe round trips) — the paper's §2 steps (2) and (3). Every
	// post, however short, takes the buffered copy: the payload is staged
	// in registered memory and the NIC gathers it.
	DoorbellGather
)

// String implements fmt.Stringer.
func (m PostMode) String() string {
	switch m {
	case PIOInline:
		return "pio-inline"
	case DoorbellInline:
		return "doorbell-inline"
	case DoorbellGather:
		return "doorbell-gather"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// AmHandler is an active-message receive callback, invoked during Progress
// on the node that received the message. data is borrowed from the worker's
// reusable receive scratch and is only valid for the duration of the call:
// handlers that keep the payload must copy it (internal/ucp does). Handlers
// run inside the progress frame and must be pause-free (Advance only).
type AmHandler func(t *sim.Task, data []byte)

// SendCompletion is invoked during Progress for each completed send-side
// operation (UCP registers it to drive its request machinery). It must be
// pause-free (Advance only). ep is the endpoint whose CQ produced the
// completion; err is nil for a successful CQE and the endpoint failure for
// an error CQE — the count operations are retired either way, but on error
// nothing was delivered and the upper layer must fail the covered requests
// rather than complete them.
type SendCompletion func(t *sim.Task, ep *Ep, count int, err error)

// Stats counts LLP events; the §6 methodology needs the busy-post count.
type Stats struct {
	Posts      uint64
	BusyPosts  uint64
	Progresses uint64
	EmptyPolls uint64
	SendCQEs   uint64
	RecvCQEs   uint64
	SendsFreed uint64 // send slots retired (>= SendCQEs with unsignaled batching)
	// ErrorCQEs counts completions with a nonzero status — the NIC gave
	// up on the operation (e.g. RNR retries exhausted) and the retired
	// WQEs must not be treated as delivered. The endpoint's Err records
	// the last such failure.
	ErrorCQEs uint64
}

// Worker is the LLP progress context for one core.
type Worker struct {
	Node *node.Node
	Cfg  *config.Config
	Eps  []*Ep

	amHandlers map[uint8]AmHandler
	onSend     SendCompletion

	Stats Stats

	// rand is the jitter stream for this worker's software costs. It
	// defaults to the node's stream; SetRand decouples co-node workers
	// (one per simulated core) so their draws are independent of
	// scheduling order.
	rand *rng.Rand

	scratch [mlx.CQESize]byte
	// cqe is the scratch completion readCQ decodes into; its payload
	// buffer is reused, so CQE data handed to AM handlers is only valid
	// for the duration of the callback (copy what you keep).
	cqe mlx.CQE
	// recvBuf is the reusable staging buffer for payloads delivered to
	// the receive pool (too large for CQE inline scatter).
	recvBuf []byte

	// idle is the parked poll loop's state while its task is parked or
	// just woken (see park).
	idle idlePoll
	// unpark disarms the worker's completion-slot watches when its parked
	// task is cancelled; bound once so parking allocates nothing.
	unpark func()

	// flushed reports whether no endpoint has a send in flight: StartFlush's
	// predicate, bound once so a flush allocates nothing.
	flushed func() bool

	// Preallocated frames (one progress chain per worker at a time).
	progF progressFrame
	waitF waitFrame
}

// NewWorker builds an LLP worker on a node. The worker draws its software
// jitter from the node's stream; use SetRand to give co-node workers
// independent streams.
func NewWorker(n *node.Node, cfg *config.Config) *Worker {
	w := &Worker{Node: n, Cfg: cfg, amHandlers: make(map[uint8]AmHandler), rand: n.Rand}
	n.Bound.Bind(n.Rand, 1)
	w.progF.w = w
	w.waitF.w = w
	w.unpark = w.cancelPark
	w.flushed = func() bool {
		for _, e := range w.Eps {
			if e.InFlight() > 0 {
				return false
			}
		}
		return true
	}
	return w
}

// SetRand replaces the worker's jitter stream (nil collapses distributions
// to their means, as in NoiseOff mode). The multi-core ablation derives one
// stream per simulated core from the campaign seed and the core identity,
// so co-node cores' draws decouple from event scheduling order.
func (w *Worker) SetRand(r *rng.Rand) {
	w.Node.Bound.Bind(w.rand, -1)
	w.Node.Bound.Bind(r, 1)
	w.rand = r
}

// SetAmHandler registers the receive callback for an active-message id.
func (w *Worker) SetAmHandler(id uint8, h AmHandler) { w.amHandlers[id] = h }

// SetSendCompletion registers the send-side completion callback.
func (w *Worker) SetSendCompletion(cb SendCompletion) { w.onSend = cb }

// Ep is a connected endpoint (its own QP, per UCX's RC transport).
type Ep struct {
	w  *Worker
	qp *nic.QP

	Mode PostMode
	// SignalPeriod: every SignalPeriod-th post is signaled (1 = every
	// post; the paper's c = 64 for the MPI path).
	SignalPeriod int

	// Software queue state.
	pi        uint16 // next WQE counter
	completed uint16 // count of WQEs known completed (from CQEs)
	sendCI    uint16 // send CQ consumer counter
	recvCI    uint16 // recv CQ consumer counter
	sinceSig  int

	// RemoteBuf is the peer buffer targeted by PutShort.
	RemoteBuf uint64

	// staging is the base of the endpoint's SQDepth bcopy staging slots,
	// MaxBcopy bytes each (see the package documentation). A gather post
	// takes a slot (takeStaging) and owns it until the CQE that retires
	// the post is polled (freeStaging), success or error, so the NIC reads
	// a stable payload.
	staging uint64
	// stagingOf is the slot plus one of the gather post in each send-queue
	// entry, 0 for a post that took none (a uint8 holds it while SQDepth
	// is below 256). stagingFree[:nFree] is the LIFO of freed slots, and
	// nStaged counts the slots ever taken: the next never-used one.
	stagingOf   [SQDepth]uint8
	stagingFree [SQDepth]uint8
	nFree       int
	nStaged     int

	// Receive buffer pool: posted receives rotate through fixed slots;
	// recvOrder mirrors the NIC's FIFO consumption so large payloads
	// (delivered to the buffer rather than scattered into the CQE) are
	// read back from the right slot.
	recvPool  uint64
	recvSlot  int
	recvOrder fifo.Queue[uint64]

	// owedRecvCredits counts consumed receives not yet reposted.
	// Replenishment is batched and runs on empty polls (idle time) or
	// when the debt reaches replenishBatch, keeping the repost cost off
	// the receive critical path, as UCX's batched receive posting does.
	owedRecvCredits int

	// Err records the first error completion the endpoint saw (e.g. the
	// peer kept answering RNR NAK past the QP's retry budget). The failed
	// WQEs are retired — InFlight drains — but were never delivered.
	Err error

	// lastPost is the result of the most recent post frame (see LastPost).
	lastPost error

	// Preallocated frames (one in-flight operation per endpoint at a time).
	postF  postFrame
	sizedF sizedPostFrame
	recvsF recvsFrame
}

// Receive-pool geometry: slots sized for the largest bcopy message.
const (
	// MaxBcopy is the largest payload the buffered-copy path carries.
	MaxBcopy      = 4096
	recvPoolSlots = 64
)

// replenishBatch forces a repost even on a busy worker once this many
// receive credits are owed.
const replenishBatch = 64

// Queue sizes of every endpoint's QP (powers of two). The send queue is
// shallower than the OSU message-rate window, so a realistic share of that
// benchmark's posts go busy, reproducing the paper's Misc term (§6). Its
// completion ring takes the same depth (nic.CreateQP).
//
// RQDepth is the most receive credits an endpoint may hold, posted or
// consumed but not yet polled, and the depth of its receive completion
// ring: each receive CQE consumes one credit, so the ring never holds more
// unpolled entries. The OSU message rate posts 512, the most of any
// driver.
const (
	SQDepth = 128
	RQDepth = 512
)

// EpBytes reports the host memory NewEp reserves on its worker's node: the
// QP (nic.QPBytes), one MaxBcopy staging slot per send-queue entry and the
// receive pool. A node's memory (node.MemBytes) bounds how many endpoints
// it can hold. Of the staging slots, the host backs only as many as the
// endpoint ever had gather sends in flight at once, and of the completion
// rings only the pages its completions reached (see the package
// documentation).
func EpBytes() uint64 {
	return nic.QPBytes(SQDepth, RQDepth) + MaxBcopy*SQDepth + MaxBcopy*recvPoolSlots
}

// EpTargetBytes reports the host memory a node gives one endpoint that a
// peer writes into: the endpoint (EpBytes) plus the max(msgBytes, 64)-byte
// target buffer, which takes a whole number of 64-byte lines.
func EpTargetBytes(msgBytes int) uint64 {
	return EpBytes() + (uint64(max(msgBytes, 64))+63)&^63
}

// NewEp creates an endpoint with its own QP.
func (w *Worker) NewEp(mode PostMode, signalPeriod int) *Ep {
	if signalPeriod < 1 {
		signalPeriod = 1
	}
	qp := w.Node.NIC.CreateQP(SQDepth, RQDepth)
	st := w.Node.Mem.Alloc(fmt.Sprintf("uct.ep%d.staging", qp.QPN), MaxBcopy*SQDepth, 64)
	pool := w.Node.Mem.Alloc(fmt.Sprintf("uct.ep%d.rxpool", qp.QPN), MaxBcopy*recvPoolSlots, 64)
	ep := &Ep{w: w, qp: qp, Mode: mode, SignalPeriod: signalPeriod, staging: st.Base, recvPool: pool.Base}
	ep.postF.e = ep
	ep.sizedF.e = ep
	ep.recvsF.e = ep
	w.Eps = append(w.Eps, ep)
	return ep
}

// QP exposes the underlying queue pair (tests, trace filtering).
func (e *Ep) QP() *nic.QP { return e.qp }

// SetLabel names the endpoint's QP for per-owner reporting (e.g. a workload
// cohort): recovery breakdowns group by it.
func (e *Ep) SetLabel(s string) { e.qp.Label = s }

// takeStaging takes a staging slot for the gather post about to be posted
// (e.pi has not been advanced yet) and returns its address: the slot freed
// last, or the next never-used one. A free send-queue entry guarantees a
// slot, since only in-flight posts hold one.
func (e *Ep) takeStaging() uint64 {
	var s uint8
	if e.nFree > 0 {
		e.nFree--
		s = e.stagingFree[e.nFree]
	} else {
		s = uint8(e.nStaged)
		e.nStaged++
	}
	e.stagingOf[e.pi%SQDepth] = s + 1
	return e.staging + uint64(s)*MaxBcopy
}

// freeStaging returns the staging slots of the n posts from counter first
// on, which one CQE retired, to the free list.
func (e *Ep) freeStaging(first uint16, n int) {
	for i := 0; i < n; i++ {
		held := &e.stagingOf[(first+uint16(i))%SQDepth]
		if *held != 0 {
			e.stagingFree[e.nFree] = *held - 1
			e.nFree++
			*held = 0
		}
	}
}

// Connect wires two endpoints' QPs into a reliable connection.
func Connect(a, b *Ep) { nic.Connect(a.qp, b.qp) }

// StartPostRecvs begins posting n receive credits, each with its own pool
// slot for payloads too large for CQE inline scatter.
func (e *Ep) StartPostRecvs(t *sim.Task, n int) {
	e.recvsF.pc = 0
	e.recvsF.n = n
	e.recvsF.i = 0
	t.Call(&e.recvsF)
}

// recvsFrame posts n receive credits; each credit must become visible to
// in-flight deliveries at its own post time, not batched at the end.
type recvsFrame struct {
	e    *Ep
	pc   int
	n, i int
}

func (f *recvsFrame) Step(t *sim.Task) {
	e := f.e
	for {
		switch f.pc {
		case 0:
			if f.i >= f.n {
				t.Return()
				return
			}
			t.Advance(e.w.Cfg.SW.PostRecv.Sample(e.w.rand))
			f.pc = 1
			if t.Pause() {
				return
			}
		case 1:
			e.postOneRecv()
			f.i++
			f.pc = 0
		}
	}
}

// postOneRecv posts one receive credit, held until the CQE that consumes
// it is polled. One past RQDepth could overwrite a completion not yet
// polled, so it panics.
func (e *Ep) postOneRecv() {
	if e.recvOrder.Len() == RQDepth {
		panic(fmt.Sprintf("uct: qp %d: receive credit %d past RQDepth (%d): an endpoint holds at most RQDepth credits, posted or consumed but unpolled",
			e.qp.QPN, RQDepth+1, RQDepth))
	}
	addr := e.recvPool + uint64(e.recvSlot%recvPoolSlots)*MaxBcopy
	e.recvSlot++
	e.recvOrder.Push(addr)
	e.qp.PostRecv(addr)
}

// InFlight reports send slots currently consumed.
func (e *Ep) InFlight() int { return int(e.pi - e.completed) }

// FreeSlots reports available send slots.
func (e *Ep) FreeSlots() int { return e.qp.SQ.Depth - e.InFlight() }

// LastPost reports the outcome of the most recently completed post frame
// (StartPut, StartAm or TryAm). Valid once the frame has returned to its
// caller.
func (e *Ep) LastPost() error { return e.lastPost }

// StartPut begins an RDMA write of data to the peer's RemoteBuf on the path
// its size selects (see startPost). A busy post progresses the worker and
// posts again, so LastPost never reports ErrNoResource; any other error (a
// payload above MaxBcopy, a failed QP) is left there for the caller. While
// the queue stays full the retry parks on an empty poll (see the package
// documentation).
func (e *Ep) StartPut(t *sim.Task, data []byte) {
	e.startSized(t, mlx.OpRDMAWrite, 0, data)
}

// StartAm begins sending an active message on the path its size selects,
// retrying busy posts like StartPut.
func (e *Ep) StartAm(t *sim.Task, id uint8, data []byte) {
	e.startSized(t, mlx.OpSend, id, data)
}

// TryAm begins sending an active message on the path its size selects, like
// StartAm, but posts once: a full transmit queue leaves ErrNoResource in
// LastPost (a busy post costing SW.BusyPost, per Table 1). It is ucp's post,
// which queues its own busy posts.
func (e *Ep) TryAm(t *sim.Task, id uint8, data []byte) {
	e.startPost(t, mlx.OpSend, id, 0, data)
}

func (e *Ep) startSized(t *sim.Task, op mlx.Opcode, amID uint8, data []byte) {
	f := &e.sizedF
	f.pc = 0
	f.op = op
	f.amID = amID
	f.data = data
	t.Call(f)
}

// sizedPostFrame is the benchmark post loop behind StartPut and StartAm:
// post and, while the transmit queue is full, progress the worker and post
// again, parking on an empty poll.
type sizedPostFrame struct {
	e    *Ep
	pc   int
	op   mlx.Opcode
	amID uint8
	data []byte
}

func (f *sizedPostFrame) Step(t *sim.Task) {
	e := f.e
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			var raddr uint64
			if f.op == mlx.OpRDMAWrite {
				raddr = e.RemoteBuf
			}
			e.startPost(t, f.op, f.amID, raddr, f.data)
			return
		case 1:
			if e.lastPost != ErrNoResource {
				f.data = nil
				t.Return()
				return
			}
			f.pc = 2
			e.w.StartProgress(t)
			return
		case 2: // polled: park on an empty CQ, or post again
			if !e.w.Node.Prof.Times(profile.LLPPost) && e.w.Park(t, e.w.rand, e.w.Cfg.SW.BusyPost) {
				f.pc = 3
				return
			}
			f.pc = 0
		case 3: // woken: the poll that sees the completion, a busy post before each
			f.pc = 2
			e.w.Stats.BusyPosts += e.w.StartWokenProgress(t)
			return
		}
	}
}

// startPost begins one post attempt on the path the payload's size selects,
// decided here once, as UCX selects by size: the payload rides inline in
// the descriptor up to mlx.InlineMax bytes on a PIOInline or DoorbellInline
// endpoint; anything larger, and every payload on a DoorbellGather
// endpoint, is staged for the NIC's DMA gather (the buffered copy), up to
// MaxBcopy bytes. A full transmit queue leaves ErrNoResource in LastPost.
func (e *Ep) startPost(t *sim.Task, op mlx.Opcode, amID uint8, raddr uint64, data []byte) {
	f := &e.postF
	f.pc = 0
	f.op = op
	f.amID = amID
	f.raddr = raddr
	f.data = data
	f.gather = e.Mode == DoorbellGather || len(data) > mlx.InlineMax
	t.Call(f)
}

// postFrame is the one LLP_post: the paper's §4.1 sequence as a resumable
// state machine, on every descriptor path. The paths share the prologue
// (the size and failed-QP checks, the llp_post scope, the busy post, the
// entry cost), the descriptor-building step, the DoorBell record between
// two store barriers, the DoorBell MMIO write and the exit, and each keeps
// its own order of them:
//
//   - PIO inline: descriptor, barriers and record, then a PIO copy of the
//     whole descriptor to the BlueFlame window.
//   - DoorBell inline: descriptor, barriers and record, the store into the
//     send-queue ring, then the DoorBell; the NIC DMA-reads the descriptor.
//   - Gather: the payload staged in registered memory (the bcopy memcpy),
//     a descriptor pointing at it, the ring store, barriers and record, then
//     the DoorBell; the NIC DMA-reads the descriptor and then the payload
//     (paper §2 steps 2-3).
//
// An inline post times the §4.1 stage scopes (md_setup, barrier_md,
// barrier_dbc, and pio_copy on the PIO path); a gather post times none.
type postFrame struct {
	e      *Ep
	pc     int
	op     mlx.Opcode
	amID   uint8
	raddr  uint64
	data   []byte
	gather bool // the payload is staged for the NIC's DMA gather
	tok    profile.Token
	enc    [mlx.WQESize]byte
}

// finish records the post outcome and pops the frame.
func (f *postFrame) finish(t *sim.Task, err error) {
	f.e.lastPost = err
	f.data = nil
	t.Return()
}

// stage begins the §4.1 stage scope s, which only an inline post times.
func (f *postFrame) stage(t *sim.Task, s profile.Scope) profile.Token {
	if f.gather {
		return profile.Token{}
	}
	return f.e.w.Node.Prof.Begin(t, s)
}

func (f *postFrame) Step(t *sim.Task) {
	e := f.e
	w := e.w
	sw := &w.Cfg.SW
	r := w.rand
	prof := w.Node.Prof
	for {
		switch f.pc {
		case 0:
			if len(f.data) > MaxBcopy {
				f.finish(t, fmt.Errorf("uct: post limited to %d bytes, got %d", MaxBcopy, len(f.data)))
				return
			}
			if e.Err != nil {
				// The QP failed (e.g. RNR retries exhausted); surface the
				// error instead of posting into a flushing queue.
				f.finish(t, e.Err)
				return
			}

			// The attempt is timed as a whole and recorded by outcome.
			f.tok = prof.Begin(t, profile.LLPPost)

			if e.FreeSlots() == 0 {
				// Busy post: fail fast; the caller must progress first.
				t.Advance(sw.BusyPost.Sample(r))
				w.Stats.BusyPosts++
				prof.EndAs(t, f.tok, profile.BusyPost)
				f.finish(t, ErrNoResource)
				return
			}

			// (0/1) Function-call entry, code-path branches.
			t.Advance(sw.LLPPostEntry.Sample(r))
			f.pc = 1
			if f.gather {
				// Stage the payload: the bcopy memcpy.
				t.Advance(units.Time(len(f.data)) * sw.MemcpyPerByte)
				if t.Pause() {
					return
				}
			}
		case 1:
			// (1) Prepare the message descriptor: the payload memcpy'd
			// inline, or a pointer to its staged copy. Encode reads the
			// fields of its kind, and the 64-byte encoding lives in the
			// preallocated frame, so the steady-state post allocates
			// nothing.
			var staged uint64
			stTok := f.stage(t, profile.MDSetup)
			if f.gather {
				staged = e.takeStaging()
				w.Node.Mem.Write(staged, f.data)
			}
			wqe := mlx.WQE{
				Opcode:     f.op,
				Signaled:   e.nextSignaled(),
				Inline:     !f.gather,
				WQEIdx:     e.pi,
				QPN:        e.qp.QPN,
				AmID:       f.amID,
				Payload:    f.data,
				GatherAddr: staged,
				GatherLen:  uint32(len(f.data)),
				RemoteAddr: f.raddr,
			}
			enc, err := wqe.Encode()
			if err != nil {
				panic(fmt.Sprintf("uct: WQE encode: %v", err))
			}
			f.enc = enc
			t.Advance(sw.MDSetup.Sample(r))
			prof.End(t, stTok)
			if !f.gather {
				f.pc = 2
				continue
			}
			// A gather descriptor is stored into the ring before the
			// barriers.
			t.Advance(sw.SQRingWrite.Sample(r))
			f.pc = 3
			if t.Pause() {
				return
			}
		case 2:
			// (2) Store barrier: the MD must be fully written before
			// signalling.
			stTok := f.stage(t, profile.BarrierMD)
			t.Advance(sw.BarrierMD.Sample(r))
			prof.End(t, stTok)

			// (3) DoorBell-counter increment in host memory (enables the
			// NIC's speculative reads). No Pause: the doorbell record is
			// written by the CPU but read by nothing in the device model
			// (the NIC learns the producer counter through the MMIO
			// doorbell), so committing it while the kernel clock still
			// lags the task clock is unobservable.
			var dbr [8]byte
			binary.LittleEndian.PutUint16(dbr[:], e.pi+1)
			w.Node.Mem.Write(e.qp.DBRAddr, dbr[:])
			t.Advance(sw.DBCIncrement.Sample(r))

			// (4) Store barrier: the DBC update must be visible before the
			// device write.
			stTok = f.stage(t, profile.BarrierDBC)
			t.Advance(sw.BarrierDBC.Sample(r))
			prof.End(t, stTok)

			// (5) Hand the descriptor to the NIC.
			switch {
			case f.gather: // already in the ring: ring the DoorBell
				t.Advance(sw.DoorbellRing.Sample(r))
				f.pc = 4
			case e.Mode == PIOInline: // PIO copy to Device-GRE memory, in 64-byte chunks
				stTok = prof.Begin(t, profile.PIOCopy)
				t.Advance(sw.PIOCopy.Sample(r))
				prof.End(t, stTok)
				f.pc = 5
			default: // DoorbellInline: store into the ring, then ring
				t.Advance(sw.SQRingWrite.Sample(r))
				f.pc = 3
			}
			if t.Pause() {
				return
			}
		case 3: // the regular store of the WQE into the send-queue ring
			w.Node.Mem.Write(e.qp.SQ.EntryAddr(e.pi), f.enc[:])
			if f.gather {
				f.pc = 2 // the barriers and the DoorBell record follow
				continue
			}
			t.Advance(sw.DBRecUpdate.Sample(r))
			t.Advance(sw.DoorbellRing.Sample(r))
			f.pc = 4
			if t.Pause() {
				return
			}
		case 4: // the 8-byte DoorBell MMIO write
			var db [8]byte
			binary.LittleEndian.PutUint16(db[:], e.pi+1)
			w.Node.RC.MMIOWrite(e.qp.DBAddr, db[:])
			f.pc = 6
		case 5: // PIO: the whole descriptor in one MMIO write. The ring copy
			// is stored first — BlueFlame is a fetch-skipping hint, and the
			// NIC falls back to fetching the ring slot when it cannot consume
			// the hint in order (e.g. a gather descriptor on the same QP is
			// still being fetched).
			w.Node.Mem.Write(e.qp.SQ.EntryAddr(e.pi), f.enc[:])
			w.Node.RC.MMIOWrite(e.qp.BFAddr, f.enc[:])
			f.pc = 6
		case 6:
			t.Advance(sw.LLPPostExit.Sample(r))
			e.pi++
			w.Stats.Posts++
			prof.End(t, f.tok)
			f.finish(t, nil)
			return
		}
	}
}

// nextSignaled applies the unsignaled-completion policy.
func (e *Ep) nextSignaled() bool {
	e.sinceSig++
	if e.sinceSig >= e.SignalPeriod {
		e.sinceSig = 0
		return true
	}
	return false
}

// StartFlush begins progressing the worker until no endpoint has a send in
// flight (UCX's uct_iface_flush): the wait loop of StartProgressUntil, with
// that predicate. Failed sends retire through their error CQEs, so a flush
// also ends on a failed endpoint.
func (w *Worker) StartFlush(t *sim.Task) { w.StartProgressUntil(t, w.flushed) }

// StartProgressUntil begins the worker's wait loop: it tests done before
// every poll and polls while done reports false, so it polls exactly where
// StartProgress calls guarded by done would, and parks after an empty poll
// like StartPut's retry (see the package documentation). done must not
// pause, and is bound once per run: a closure or method value made per call
// allocates. A parked wait wakes on a write to this worker's completion
// slots and on Wake, so every simulated value is the spin's as long as done
// changes only inside this worker's progress or in a task that calls Wake
// after changing it.
func (w *Worker) StartProgressUntil(t *sim.Task, done func() bool) {
	w.waitF.pc = 0
	w.waitF.done = done
	w.waitF.polled = false
	t.Call(&w.waitF)
}

// waitFrame is the wait loop behind StartProgressUntil.
type waitFrame struct {
	w      *Worker
	pc     int
	done   func() bool
	polled bool // the loop has polled: Park may follow an empty poll
}

func (f *waitFrame) Step(t *sim.Task) {
	w := f.w
	for {
		switch f.pc {
		case 0: // test; then poll, or park after an empty poll
			if f.done() {
				t.Return()
				return
			}
			f.pc = 1
			if f.polled && w.Park(t, nil) {
				f.pc = 2
				return
			}
			w.StartProgress(t)
			return
		case 1: // polled
			f.polled = true
			f.pc = 0
		case 2: // woken: the poll that sees the completion
			f.pc = 1
			w.StartWokenProgress(t)
			return
		}
	}
}

// idlePoll is a parked wait loop. Under NoiseOff the rounds it skips read
// the CQs at first + (j-1)*period for j = 1, 2, ...; under noise replay
// draws them from at, the task's clock at the park. The wake records in
// rounds the j of the round whose poll it resumes at.
type idlePoll struct {
	t             *sim.Task
	first, period units.Time
	rounds        uint64

	// mark is the park's place in the kernel's scheduling order, where the
	// spin would have queued its first skipped poll.
	mark sim.Mark
	// noisy: the rounds draw their costs (see replay); above[:nAbove] are
	// the costs each round pays before its poll, in the layers above it.
	noisy  bool
	at     units.Time
	above  [2]rng.Dist
	nAbove int
}

// Park parks t, which runs a wait loop over this worker, right after one
// of the loop's rounds and the exit test that followed it, when the
// conditions in the package documentation hold: among them, the round's
// poll retired nothing. above are the costs each round of the loop pays
// before its poll, in the layers above it, in the order it pays them (a
// nil one costs nothing), all drawn from r (nil when there are none); Park
// adds the poll's own, drawn from the worker's stream. It reports whether
// t parked: the caller's Step must then return, and on resuming begin its
// round with StartWokenProgress.
func (w *Worker) Park(t *sim.Task, r *rng.Rand, above ...rng.Dist) bool {
	if w.Node.Prof.Times(profile.LLPProg) || w.progF.n != 0 || w.cqReady() {
		return false
	}
	id := &w.idle
	sw := &w.Cfg.SW
	toRead := sw.LLPProgBarrier.Sample(nil) // from here to the first skipped round's CQ read
	id.nAbove = 0
	for _, d := range above {
		if d == nil {
			continue
		}
		if id.nAbove == len(id.above) {
			panic(fmt.Sprintf("uct: a wait loop parked with more than %d costs above its poll", len(id.above)))
		}
		id.above[id.nAbove] = d
		id.nAbove++
		toRead += d.Sample(nil)
	}
	period := toRead + sw.LLPProgFailChk.Sample(nil)
	if period <= 0 {
		return false
	}
	// A noisy loop replays its draws at the wake, which finds the spin's
	// values only if nothing else draws from the streams meanwhile: every
	// cost must come from the worker's stream, bound to no other worker.
	id.noisy = w.rand != nil || r != nil && id.nAbove > 0
	if id.noisy && (id.nAbove > 0 && r != w.rand || w.Node.Bound.Count(w.rand) != 1) {
		return false
	}
	mem := w.Node.Mem
	for _, e := range w.Eps {
		mem.Watch(e.qp.SendCQ.EntryAddr(e.sendCI), mlx.CQESize, cqWritten, w)
		mem.Watch(e.qp.RecvCQ.EntryAddr(e.recvCI), mlx.CQESize, cqWritten, w)
	}
	id.t = t
	id.mark = t.Kernel().Mark()
	if id.noisy {
		id.at = t.Now()
	} else {
		id.first, id.period = t.Now()+toRead, period
	}
	t.Park(w.unpark)
	return true
}

// cqReady reports whether the next slot of some endpoint's send or receive
// CQ holds a valid completion.
func (w *Worker) cqReady() bool {
	for _, e := range w.Eps {
		if e.cqValid(e.qp.SendCQ, e.sendCI) || e.cqValid(e.qp.RecvCQ, e.recvCI) {
			return true
		}
	}
	return false
}

// cqWritten is the watch on a parked worker's completion slots: a write
// that makes one of them valid wakes the loop.
func cqWritten(a any) {
	if w := a.(*Worker); w.cqReady() {
		w.wake()
	}
}

// Wake resumes the worker's parked wait loop, if it has one, after another
// task changed what the loop's exit test reads: the loop runs the first
// skipped round whose poll is at or after the change, then tests again.
// A worker that is not parked is left alone.
func (w *Worker) Wake() {
	if t := w.idle.t; t != nil && t.Parked() {
		w.wake()
	}
}

// wake disarms the parked loop's watches and resumes it at the first
// skipped poll that sees the running event's change, queued where its spin
// would have queued that poll's resume.
func (w *Worker) wake() {
	w.Node.Mem.Unwatch(w)
	id := &w.idle
	k := id.t.Kernel()
	now, sched := k.Now(), k.Scheduled()
	var at, prev units.Time
	if id.noisy {
		at, prev, id.rounds = w.replay(now, sched)
	} else {
		j := units.Time(1)
		if now > id.first {
			j += (now - id.first + id.period - 1) / id.period
		}
		at, prev = id.first+(j-1)*id.period, id.first+(j-2)*id.period
		if at == now && !id.seen(uint64(j), prev, sched) {
			at, prev, j = at+id.period, at, j+1
		}
		id.rounds = uint64(j)
	}
	place := id.mark
	if id.rounds > 1 {
		place = sim.MarkAt(prev)
	}
	id.t.WakeAt(at, place)
}

// seen reports whether the spin's poll of skipped round j, at the instant
// of a change made by an event queued at sched, runs after the change: the
// change was queued before the spin would have queued the poll's resume,
// at the park for the first round and at prev, the previous round's CQ
// read, for the others (a change queued at prev itself counts as after).
func (id *idlePoll) seen(j uint64, prev units.Time, sched sim.Mark) bool {
	if j == 1 {
		return sched.Before(id.mark)
	}
	return sched.At() < prev
}

// replay draws a noisy parked loop's skipped rounds from the worker's
// stream, in the spin's order (the costs above the poll, LLPProgBarrier,
// then after the CQ read LLPProgFailChk), up to the first round whose poll
// the spin runs after a change made at now by an event queued at sched. It
// returns that poll's instant, the previous round's, and the round's j;
// the costs of round j past its CQ read are left to the round itself.
func (w *Worker) replay(now units.Time, sched sim.Mark) (at, prev units.Time, j uint64) {
	id := &w.idle
	sw := &w.Cfg.SW
	r := w.rand
	at = id.at
	for j = 1; ; j++ {
		for _, d := range id.above[:id.nAbove] {
			at += d.Sample(r)
		}
		at += sw.LLPProgBarrier.Sample(r)
		if at > now || at == now && id.seen(j, prev, sched) {
			return at, prev, j
		}
		prev = at
		at += sw.LLPProgFailChk.Sample(r)
	}
}

// cancelPark disarms a parked loop whose task is cancelled. A noisy loop
// first draws the rounds its spin would have drawn by the cancel, so the
// worker's stream stands where the spin's would.
func (w *Worker) cancelPark() {
	w.Node.Mem.Unwatch(w)
	if w.idle.noisy {
		k := w.idle.t.Kernel()
		w.replay(k.Now(), k.Scheduled())
	}
}

// StartWokenProgress begins the round a parked loop was woken for: it
// accounts the polls of the j rounds the loop ran parked — j progresses,
// j-1 of them empty — begins the j-th poll at its CQ read, where the spin
// would stand, and returns j, which the layers above add to their own
// per-round counters.
func (w *Worker) StartWokenProgress(t *sim.Task) uint64 {
	id := &w.idle
	w.Stats.Progresses += id.rounds
	w.Stats.EmptyPolls += id.rounds - 1
	id.t = nil
	f := &w.progF
	f.pc = 1
	f.i = 0
	f.tok = profile.Token{}
	t.Call(f)
	return id.rounds
}

// StartProgress begins one completion-queue poll, dequeuing at most one
// entry (the paper's LLP_prog is "dequeuing one entry of the completion
// queue"). The number of operations retired — one CQE can retire several
// with unsignaled completions, 0 means an empty poll — is reported by
// LastProgress once the frame returns.
func (w *Worker) StartProgress(t *sim.Task) {
	w.progF.pc = 0
	t.Call(&w.progF)
}

// LastProgress reports the operation count retired by the most recently
// completed progress frame.
func (w *Worker) LastProgress() int { return w.progF.n }

// progressFrame polls the send CQs first, then the receive CQs, scanning
// endpoints in creation order for determinism. Before each CQ read the task
// pauses (free unless lag is pending): the read must observe every
// completion DMA-written up to the task's current virtual time.
type progressFrame struct {
	w  *Worker
	pc int
	i  int // endpoint scan index
	n  int // result: operations retired

	tok profile.Token
	// Recv-path locals preserved across the large-payload pause.
	amID    uint8
	byteCnt uint32
	bufAddr uint64
	data    []byte
}

func (f *progressFrame) Step(t *sim.Task) {
	w := f.w
	sw := &w.Cfg.SW
	r := w.rand
	prof := w.Node.Prof
	for {
		switch f.pc {
		case 0:
			w.Stats.Progresses++
			f.tok = prof.Begin(t, profile.LLPProg)
			// Load barrier: the CQE read must not be reordered with
			// subsequent data-structure updates (paper §4.1, aarch64 weak
			// memory model).
			t.Advance(sw.LLPProgBarrier.Sample(r))
			f.i = 0
			f.pc = 1
		case 1: // about to read ep i's send CQ
			if f.i >= len(w.Eps) {
				f.i = 0
				f.pc = 3
				continue
			}
			f.pc = 2
			if t.Pause() {
				return
			}
		case 2:
			e := w.Eps[f.i]
			cqe := e.readCQ(e.qp.SendCQ, e.sendCI)
			if cqe == nil {
				f.i++
				f.pc = 1
				continue
			}
			t.Advance(sw.LLPProgCQERead.Sample(r))
			e.sendCI++
			n := int(cqe.WQECounter - e.completed + 1)
			e.freeStaging(e.completed, n)
			e.completed = cqe.WQECounter + 1
			w.Stats.SendCQEs++
			w.Stats.SendsFreed += uint64(n)
			var cqErr error
			if cqe.Status != mlx.CQEOK {
				// Error completion: the NIC flushed the outstanding
				// tail (retry exhaustion, a crashed local NIC, or a
				// flushing errored QP). The slots are freed but
				// nothing was delivered; surface it to the caller.
				w.Stats.ErrorCQEs++
				cqErr = fmt.Errorf("uct: qp %d send failed with completion status %d at counter %d",
					cqe.QPN, cqe.Status, cqe.WQECounter)
				if e.Err == nil {
					e.Err = cqErr
				}
			}
			t.Advance(sw.LLPProgMisc.Sample(r))
			if tr := t.Kernel().Tracer(); tr != nil {
				// Software-visible completion: n sends retired by one CQE.
				tr.Emit(trace.Event{At: t.Now(), Kind: trace.EvComp,
					Node: int16(w.Node.ID), Arg: trace.ArgQP(e.qp.QPN, uint64(n))})
			}
			// Registered callbacks run before uct_worker_progress
			// returns (paper §5), so the profiled scope includes them.
			if w.onSend != nil {
				w.onSend(t, e, n, cqErr)
			}
			prof.End(t, f.tok)
			f.n = n
			t.Return()
			return
		case 3: // about to read ep i's recv CQ
			if f.i >= len(w.Eps) {
				f.pc = 6
				continue
			}
			f.pc = 4
			if t.Pause() {
				return
			}
		case 4:
			e := w.Eps[f.i]
			cqe := e.readCQ(e.qp.RecvCQ, e.recvCI)
			if cqe == nil {
				f.i++
				f.pc = 3
				continue
			}
			t.Advance(sw.LLPProgCQERead.Sample(r))
			e.recvCI++
			w.Stats.RecvCQEs++
			if cqe.Status != mlx.CQEOK {
				// Flushed receive: the QP entered the error state (the
				// local NIC crashed) and the posted credit was retired
				// undelivered. Record the failure, skip the AM dispatch,
				// and do not replenish — nothing will arrive on this QP
				// again.
				w.Stats.ErrorCQEs++
				if e.Err == nil {
					e.Err = fmt.Errorf("uct: qp %d recv flushed with completion status %d",
						cqe.QPN, cqe.Status)
				}
				if e.recvOrder.Len() > 0 {
					e.recvOrder.Pop()
				}
				t.Advance(sw.LLPProgMisc.Sample(r))
				prof.End(t, f.tok)
				f.n = 1
				t.Return()
				return
			}
			t.Advance(sw.LLPProgMisc.Sample(r))
			// Every inbound send consumed one posted receive; retire
			// its pool slot in FIFO order.
			if e.recvOrder.Len() == 0 {
				panic("uct: recv CQE with no posted receive tracked")
			}
			f.bufAddr = e.recvOrder.Pop()
			f.amID = cqe.AmID
			f.byteCnt = cqe.ByteCnt
			f.data = cqe.Payload
			if int(cqe.ByteCnt) > mlx.ScatterMax {
				// Large payload: it was DMA-written to the pool slot,
				// not scattered into the CQE. Read it into the
				// worker's reusable staging buffer.
				t.Advance(units.Time(cqe.ByteCnt) * sw.MemcpyPerByte)
				f.pc = 5
				if t.Pause() {
					return
				}
				continue
			}
			f.pc = 7
		case 5:
			w.recvBuf = arena.Grow(w.recvBuf, int(f.byteCnt))
			w.Node.Mem.ReadInto(f.bufAddr, w.recvBuf)
			f.data = w.recvBuf
			f.pc = 7
		case 7: // dispatch the active-message handler (inside progress,
			// as UCX does); the profiled scope includes it, like the
			// send-side callbacks.
			e := w.Eps[f.i]
			t.Advance(sw.AmRxHandle.Sample(r))
			if tr := t.Kernel().Tracer(); tr != nil {
				// Software-visible receive: the AM payload reached its handler.
				tr.Emit(trace.Event{At: t.Now(), Kind: trace.EvComp,
					Node: int16(w.Node.ID), Arg: trace.ArgQP(e.qp.QPN, 1)})
			}
			if h := w.amHandlers[f.amID]; h != nil {
				h(t, f.data)
			}
			prof.End(t, f.tok)
			e.owedRecvCredits++
			f.n = 1
			f.data = nil
			if e.owedRecvCredits >= replenishBatch {
				f.pc = 8
				e.startRepost(t)
				return
			}
			t.Return()
			return
		case 8:
			t.Return()
			return
		case 6:
			// Empty poll: pay the failed check and use the idle time to
			// repost owed receive credits.
			t.Advance(sw.LLPProgFailChk.Sample(r))
			w.Stats.EmptyPolls++
			prof.EndAs(t, f.tok, profile.EmptyPoll)
			f.n = 0
			f.i = 0
			f.pc = 9
		case 9:
			if f.i >= len(w.Eps) {
				t.Return()
				return
			}
			e := w.Eps[f.i]
			f.i++
			if e.owedRecvCredits == 0 {
				continue
			}
			e.startRepost(t)
			return
		}
	}
}

// startRepost reposts every owed receive credit of the endpoint, one at a
// time (StartPostRecvs). Only the worker's own task changes the debt, so
// clearing it up front leaves nothing to read it mid-repost.
func (e *Ep) startRepost(t *sim.Task) {
	n := e.owedRecvCredits
	e.owedRecvCredits = 0
	e.StartPostRecvs(t, n)
}

// cqValid reports whether the generation byte, the last of the CQ slot
// for consumer counter ci, marks the slot valid. It reads that byte alone.
func (e *Ep) cqValid(ring mlx.Ring, ci uint16) bool {
	return e.w.Node.Mem.ByteAt(ring.EntryAddr(ci)+mlx.CQESize-1) == ring.Gen(ci)
}

// readCQ reads the CQ slot for consumer counter ci and returns the decoded
// CQE if its generation marks it valid. The caller must have paused
// immediately beforehand: the read must observe every completion DMA-written
// up to the task's current virtual time. The returned CQE is the worker's
// scratch: it (and its payload) is only valid until the next read.
func (e *Ep) readCQ(ring mlx.Ring, ci uint16) *mlx.CQE {
	if !e.cqValid(ring, ci) {
		return nil
	}
	e.w.Node.Mem.ReadInto(ring.EntryAddr(ci), e.w.scratch[:])
	if err := e.w.cqe.DecodeFrom(e.w.scratch[:]); err != nil {
		panic(fmt.Sprintf("uct: corrupt CQE at ci=%d: %v", ci, err))
	}
	return &e.w.cqe
}
