// Package uct implements the low-level communication protocol (LLP): a
// UCT-style transport layer that drives the NIC directly, mirroring UCX's
// rc_mlx5 data path.
//
// An LLP_post executes the paper's §4.1 sequence: prepare the message
// descriptor (with the payload memcpy'd inline), a store memory barrier, the
// DoorBell-counter increment, a second store barrier, and the PIO copy of
// the 64-byte descriptor to device memory. An LLP_prog reads one completion
// queue entry behind a load memory barrier. Busy posts (attempts against a
// full transmit queue) fail fast with ErrNoResource, exactly the semantic
// the paper's injection model builds on.
//
// StartPut and StartAm are the one post path of the perftest benchmarks
// and the workload injector: they take the inline short path up to
// mlx.InlineMax bytes and the buffered-copy path above it, as UCX selects
// by size, and retry a busy post after one worker progress. StartAmShort
// and StartAmBcopy pick the path explicitly and leave a busy post to the
// caller, for ucp, which queues its own.
// StartFlush progresses a worker until no endpoint has a send in flight,
// as UCX's uct_iface_flush does; the benchmarks drain their tails with it.
//
// A bcopy post memcpy's its payload into a staging slot of registered
// memory, from which the NIC DMA-reads it (paper §2, steps 2-3). Each
// endpoint reserves one slot per send-queue entry and hands them out from
// a LIFO free list, like UCX's bounce-buffer mpool: a post owns its slot
// until the CQE that retires it is polled, and the next post reuses the
// slot freed last. The host backs a slot's page only once it is written
// (internal/memsim), so an endpoint costs the pages of the most gather
// sends it ever had in flight at once.
//
// Every post attempt, its §4.1 stages (md_setup, barrier_md, barrier_dbc,
// pio_copy) and every poll begin their scope on the node's profiler
// (internal/profile), which times only the scope selected for the run. A
// post attempt records as llp_post or busy_post, a poll as llp_prog or
// empty_poll.
//
// # Parked polling
//
// The busy-post retry and the flush are spin loops: poll, and while the
// poll comes back empty (and, in the retry, the transmit queue stays
// full), pay the busy post and poll again. Each empty round takes
// P = BusyPost (retry only) + LLPProgBarrier + LLPProgFailChk of virtual
// time (37 ns in the calibrated retry, 28 ns in the flush), and spinning
// through it costs one kernel event. Instead, after an empty poll the
// loop parks its task (sim.Task.Park) and arms a memory write watch on
// each endpoint's next send-CQ and receive-CQ slot. The first write that
// makes one of those slots valid wakes the task at the first skipped poll
// instant at or after the write: p1 + (j-1)*P, where p1 is the first poll
// the loop skipped. On wake the worker adds j to Progresses (and to
// BusyPosts in the retry) and j-1 to EmptyPolls, and the j-th poll reads
// the CQs for real. Every simulated time and counter is therefore the
// spin's, with one event per wait instead of one per poll.
//
// A loop parks only when all of these hold, each read from its inputs:
//
//   - the worker draws no jitter (no rand stream: NoiseOff), so every
//     skipped cost is its mean. Under NoiseOn every poll draws from the
//     stream, so the loop keeps spinning and the draws stay in order;
//   - its node's profiler has no scope selected (profile.Profiler.Selected
//     is None): a timed poll reads the timer, which the skipped polls
//     would have to replay;
//   - the empty poll reposted no receive credits, so it paused nothing
//     after its CQ reads and no write can have slipped in unwatched;
//   - the tie rule: P is shorter than the shortest lead with which any CQ
//     write is scheduled — pcie.RCToMem of a CQESize write for the Root
//     Complex's DMA commits, the PCIe link's propagation
//     (config.Config.PCIeProp) for a dead NIC's flush CQEs. A write
//     landing exactly on a poll instant was then scheduled before the
//     spin's resume event for that poll, so the spin sees it, and the
//     parked loop, woken from inside the write, resumes after it and sees
//     it too. A configuration with a shorter lead (an integrated NIC's
//     10 ns PCIeProp) keeps the spin.
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
	"breakband/internal/pcie"
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
	// (two PCIe round trips) — the paper's §2 steps (2) and (3).
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

	// Preallocated frames (one progress chain per worker at a time).
	progF  progressFrame
	replF  replenishFrame
	flushF flushFrame
}

// NewWorker builds an LLP worker on a node. The worker draws its software
// jitter from the node's stream; use SetRand to give co-node workers
// independent streams.
func NewWorker(n *node.Node, cfg *config.Config) *Worker {
	w := &Worker{Node: n, Cfg: cfg, amHandlers: make(map[uint8]AmHandler), rand: n.Rand}
	w.progF.w = w
	w.flushF.w = w
	w.unpark = func() { w.Node.Mem.Unwatch(w) }
	return w
}

// SetRand replaces the worker's jitter stream (nil collapses distributions
// to their means, as in NoiseOff mode). The multi-core ablation derives one
// stream per simulated core from the campaign seed and the core identity,
// so co-node cores' draws decouple from event scheduling order.
func (w *Worker) SetRand(r *rng.Rand) { w.rand = r }

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
	postF   postFrame
	gatherF gatherFrame
	sizedF  sizedPostFrame
	recvsF  recvsFrame
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
// benchmark's posts go busy, reproducing the paper's Misc term (§6).
const (
	SQDepth = 128
	CQDepth = 4096
)

// EpBytes reports the host memory NewEp reserves on its worker's node: the
// QP (nic.QPBytes), one MaxBcopy staging slot per send-queue entry and the
// receive pool. A node's memory (node.MemBytes) bounds how many endpoints
// it can hold. Of the staging slots, the host backs only as many as the
// endpoint ever had gather sends in flight at once (see the package
// documentation).
func EpBytes() uint64 {
	return nic.QPBytes(SQDepth, CQDepth) + MaxBcopy*SQDepth + MaxBcopy*recvPoolSlots
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
	qp := w.Node.NIC.CreateQP(SQDepth, CQDepth)
	st := w.Node.Mem.Alloc(fmt.Sprintf("uct.ep%d.staging", qp.QPN), MaxBcopy*SQDepth, 64)
	pool := w.Node.Mem.Alloc(fmt.Sprintf("uct.ep%d.rxpool", qp.QPN), MaxBcopy*recvPoolSlots, 64)
	ep := &Ep{w: w, qp: qp, Mode: mode, SignalPeriod: signalPeriod, staging: st.Base, recvPool: pool.Base}
	ep.postF.e = ep
	ep.gatherF.e = ep
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

func (e *Ep) postOneRecv() {
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
// (StartPut/StartAm or one of the explicit-path active messages). Valid once
// the frame has returned to its caller.
func (e *Ep) LastPost() error { return e.lastPost }

// StartAmShort begins sending an active message (send-receive semantics)
// of data (<= mlx.InlineMax bytes) on the short path. The outcome is
// reported by LastPost: ErrNoResource on a full queue (a busy post costing
// SW.BusyPost, per Table 1).
func (e *Ep) StartAmShort(t *sim.Task, id uint8, data []byte) {
	e.startPost(t, mlx.OpSend, id, 0, data)
}

// StartAmBcopy begins sending an active message too large for the inline
// path (up to MaxBcopy bytes): the payload is copied into registered
// staging memory and the NIC gathers it by DMA — UCX's buffered-copy
// protocol. LastPost reports the outcome as for StartAmShort.
func (e *Ep) StartAmBcopy(t *sim.Task, id uint8, data []byte) {
	e.startGather(t, mlx.OpSend, id, 0, data)
}

// StartPut begins an RDMA write of data to the peer's RemoteBuf on the path
// its size selects, as UCX does: the inline short path up to mlx.InlineMax
// bytes, the buffered-copy path above it. A busy post progresses the worker
// and posts again, so LastPost never reports ErrNoResource; any other error
// (a payload above MaxBcopy, a failed QP) is left there for the caller.
// While the queue stays full the retry parks on an empty poll (see the
// package documentation).
func (e *Ep) StartPut(t *sim.Task, data []byte) {
	e.startSized(t, mlx.OpRDMAWrite, 0, data)
}

// StartAm begins sending an active message on the path its size selects,
// retrying busy posts like StartPut.
func (e *Ep) StartAm(t *sim.Task, id uint8, data []byte) {
	e.startSized(t, mlx.OpSend, id, data)
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
// post on the short or bcopy path by size and, while the transmit queue is
// full, progress the worker and post again, parking on an empty poll.
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
			if len(f.data) <= mlx.InlineMax {
				e.startPost(t, f.op, f.amID, raddr, f.data)
			} else {
				e.startGather(t, f.op, f.amID, raddr, f.data)
			}
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
			if e.w.park(t, true) {
				f.pc = 3
				return
			}
			f.pc = 0
		case 3: // woken: the poll that sees the completion
			f.pc = 2
			e.w.startWokenProgress(t)
			return
		}
	}
}

func (e *Ep) startPost(t *sim.Task, op mlx.Opcode, amID uint8, raddr uint64, data []byte) {
	f := &e.postF
	f.pc = 0
	f.op = op
	f.amID = amID
	f.raddr = raddr
	f.data = data
	t.Call(f)
}

func (e *Ep) startGather(t *sim.Task, op mlx.Opcode, amID uint8, raddr uint64, data []byte) {
	f := &e.gatherF
	f.pc = 0
	f.op = op
	f.amID = amID
	f.raddr = raddr
	f.data = data
	t.Call(f)
}

// postFrame is the short (inline-capable) descriptor path: the paper's §4.1
// LLP_post sequence as a resumable state machine.
type postFrame struct {
	e     *Ep
	pc    int
	op    mlx.Opcode
	amID  uint8
	raddr uint64
	data  []byte
	tok   profile.Token
	wqe   mlx.WQE
	enc   [mlx.WQESize]byte
}

// finish records the post outcome and pops the frame.
func (f *postFrame) finish(t *sim.Task, err error) {
	f.e.lastPost = err
	f.data = nil
	t.Return()
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
			if len(f.data) > mlx.InlineMax {
				f.finish(t, fmt.Errorf("uct: short post limited to %d bytes, got %d", mlx.InlineMax, len(f.data)))
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

			// (1) Prepare the message descriptor (memcpy of the inline
			// payload). The WQE and its 64-byte encoding live in the
			// preallocated frame, so the steady-state post allocates
			// nothing.
			stTok := prof.Begin(t, profile.MDSetup)
			f.wqe = mlx.WQE{
				Opcode:     f.op,
				Signaled:   e.nextSignaled(),
				Inline:     true,
				WQEIdx:     e.pi,
				QPN:        e.qp.QPN,
				AmID:       f.amID,
				Payload:    f.data,
				RemoteAddr: f.raddr,
			}
			enc, err := f.wqe.Encode()
			if err != nil {
				panic(fmt.Sprintf("uct: WQE encode: %v", err))
			}
			f.enc = enc
			t.Advance(sw.MDSetup.Sample(r))
			prof.End(t, stTok)

			// (2) Store barrier: the MD must be fully written before
			// signalling.
			stTok = prof.Begin(t, profile.BarrierMD)
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
			stTok = prof.Begin(t, profile.BarrierDBC)
			t.Advance(sw.BarrierDBC.Sample(r))
			prof.End(t, stTok)

			// (5) Hand the descriptor to the NIC.
			switch e.Mode {
			case PIOInline:
				// PIO copy to Device-GRE memory, in 64-byte chunks.
				stTok = prof.Begin(t, profile.PIOCopy)
				t.Advance(sw.PIOCopy.Sample(r))
				prof.End(t, stTok)
				f.pc = 1
				if t.Pause() {
					return
				}
			case DoorbellGather:
				// Stage the payload in registered memory for the NIC's
				// second DMA read.
				f.pc = 2
				if t.Pause() {
					return
				}
			case DoorbellInline:
				t.Advance(sw.SQRingWrite.Sample(r))
				f.pc = 3
				if t.Pause() {
					return
				}
			}
		case 1: // PIO: the whole descriptor in one MMIO write. The ring copy
			// is stored first — BlueFlame is a fetch-skipping hint, and the
			// NIC falls back to fetching the ring slot when it cannot consume
			// the hint in order (e.g. a gather descriptor on the same QP is
			// still being fetched).
			w.Node.Mem.Write(e.qp.SQ.EntryAddr(e.pi), f.enc[:])
			w.Node.RC.MMIOWrite(e.qp.BFAddr, f.enc[:])
			f.pc = 5
		case 2: // Gather: stage the payload, rebuild the descriptor.
			f.wqe.GatherAddr = e.takeStaging()
			w.Node.Mem.Write(f.wqe.GatherAddr, f.data)
			f.wqe.Inline = false
			f.wqe.GatherLen = uint32(len(f.data))
			f.wqe.Payload = nil
			enc, err := f.wqe.Encode()
			if err != nil {
				panic(fmt.Sprintf("uct: WQE encode: %v", err))
			}
			f.enc = enc
			t.Advance(sw.SQRingWrite.Sample(r))
			f.pc = 3
			if t.Pause() {
				return
			}
		case 3: // Regular store of the WQE into the ring, then the
			// 8-byte DoorBell MMIO write.
			w.Node.Mem.Write(e.qp.SQ.EntryAddr(e.pi), f.enc[:])
			t.Advance(sw.DBRecUpdate.Sample(r))
			t.Advance(sw.DoorbellRing.Sample(r))
			f.pc = 4
			if t.Pause() {
				return
			}
		case 4:
			var db [8]byte
			binary.LittleEndian.PutUint16(db[:], e.pi+1)
			w.Node.RC.MMIOWrite(e.qp.DBAddr, db[:])
			f.pc = 5
		case 5:
			t.Advance(sw.LLPPostExit.Sample(r))
			e.pi++
			w.Stats.Posts++
			prof.End(t, f.tok)
			f.finish(t, nil)
			return
		}
	}
}

// gatherFrame is the buffered-copy descriptor path: stage the payload, write
// a gather WQE into the send queue ring, and ring the 8-byte DoorBell. The
// NIC fetches the descriptor and the payload by DMA (paper §2 steps 2-3).
type gatherFrame struct {
	e     *Ep
	pc    int
	op    mlx.Opcode
	amID  uint8
	raddr uint64
	data  []byte
	tok   profile.Token
	wqe   mlx.WQE
	enc   [mlx.WQESize]byte
}

func (f *gatherFrame) finish(t *sim.Task, err error) {
	f.e.lastPost = err
	f.data = nil
	t.Return()
}

func (f *gatherFrame) Step(t *sim.Task) {
	e := f.e
	w := e.w
	sw := &w.Cfg.SW
	r := w.rand
	prof := w.Node.Prof
	for {
		switch f.pc {
		case 0:
			if len(f.data) > MaxBcopy {
				f.finish(t, fmt.Errorf("uct: bcopy post limited to %d bytes, got %d", MaxBcopy, len(f.data)))
				return
			}
			if e.Err != nil {
				f.finish(t, e.Err)
				return
			}

			f.tok = prof.Begin(t, profile.LLPPost)
			if e.FreeSlots() == 0 {
				t.Advance(sw.BusyPost.Sample(r))
				w.Stats.BusyPosts++
				prof.EndAs(t, f.tok, profile.BusyPost)
				f.finish(t, ErrNoResource)
				return
			}

			t.Advance(sw.LLPPostEntry.Sample(r))
			// Stage the payload (the bcopy memcpy).
			t.Advance(units.Time(len(f.data)) * sw.MemcpyPerByte)
			f.pc = 1
			if t.Pause() {
				return
			}
		case 1:
			staged := e.takeStaging()
			w.Node.Mem.Write(staged, f.data)
			// Build and store the gather descriptor.
			f.wqe = mlx.WQE{
				Opcode:     f.op,
				Signaled:   e.nextSignaled(),
				Inline:     false,
				WQEIdx:     e.pi,
				QPN:        e.qp.QPN,
				AmID:       f.amID,
				GatherAddr: staged,
				GatherLen:  uint32(len(f.data)),
				RemoteAddr: f.raddr,
			}
			enc, err := f.wqe.Encode()
			if err != nil {
				panic(fmt.Sprintf("uct: WQE encode: %v", err))
			}
			f.enc = enc
			t.Advance(sw.MDSetup.Sample(r))
			t.Advance(sw.SQRingWrite.Sample(r))
			f.pc = 2
			if t.Pause() {
				return
			}
		case 2:
			w.Node.Mem.Write(e.qp.SQ.EntryAddr(e.pi), f.enc[:])
			t.Advance(sw.BarrierMD.Sample(r))
			// No Pause for the doorbell record: see postFrame.
			var dbr [8]byte
			binary.LittleEndian.PutUint16(dbr[:], e.pi+1)
			w.Node.Mem.Write(e.qp.DBRAddr, dbr[:])
			t.Advance(sw.DBCIncrement.Sample(r))
			t.Advance(sw.BarrierDBC.Sample(r))
			t.Advance(sw.DoorbellRing.Sample(r))
			f.pc = 3
			if t.Pause() {
				return
			}
		case 3:
			var db [8]byte
			binary.LittleEndian.PutUint16(db[:], e.pi+1)
			w.Node.RC.MMIOWrite(e.qp.DBAddr, db[:])
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
// flight (UCX's uct_iface_flush). It polls exactly when some endpoint still
// has a send in flight, and parks on an empty poll like StartPut's retry
// (see the package documentation). Failed sends retire through their error
// CQEs, so a flush also ends on a failed endpoint.
func (w *Worker) StartFlush(t *sim.Task) {
	w.flushF.pc = 0
	t.Call(&w.flushF)
}

// flushFrame is the flush loop behind StartFlush.
type flushFrame struct {
	w  *Worker
	pc int
}

func (f *flushFrame) Step(t *sim.Task) {
	w := f.w
	for {
		switch f.pc {
		case 0:
			if !w.sending() {
				t.Return()
				return
			}
			f.pc = 1
			w.StartProgress(t)
			return
		case 1: // polled: park on an empty CQ, or check again
			if w.park(t, false) {
				f.pc = 2
				return
			}
			f.pc = 0
		case 2: // woken: the poll that sees the completion
			f.pc = 1
			w.startWokenProgress(t)
			return
		}
	}
}

// sending reports whether any endpoint has a send in flight.
func (w *Worker) sending() bool {
	for _, e := range w.Eps {
		if e.InFlight() > 0 {
			return true
		}
	}
	return false
}

// idlePoll is a parked poll loop. The polls it skips read the CQs at
// first + (j-1)*period for j = 1, 2, ...; the wake records in polls the j
// of the poll that sees the completion.
type idlePoll struct {
	t             *sim.Task
	first, period units.Time
	busy          bool // the busy-post retry: a busy post precedes each poll
	polls         uint64
}

// park parks t, which runs this worker's busy-post retry (busy) or flush,
// right after an empty poll, when the conditions in the package
// documentation hold. It reports whether t parked; the caller's Step must
// then return, and call startWokenProgress when t resumes.
func (w *Worker) park(t *sim.Task, busy bool) bool {
	if f := &w.progF; f.n != 0 || !f.quiet || w.rand != nil || w.Node.Prof.Selected() != profile.None {
		return false
	}
	sw := &w.Cfg.SW
	var toRead units.Time // from here to the first skipped poll's CQ read
	if busy {
		toRead = sw.BusyPost.Sample(nil)
	}
	toRead += sw.LLPProgBarrier.Sample(nil)
	period := toRead + sw.LLPProgFailChk.Sample(nil)
	if period <= 0 || period >= min(pcie.RCToMem(w.Cfg.RCToMemBase, mlx.CQESize), w.Cfg.PCIeProp) {
		return false
	}
	mem := w.Node.Mem
	for _, e := range w.Eps {
		mem.Watch(e.qp.SendCQ.EntryAddr(e.sendCI), mlx.CQESize, cqWritten, w)
		mem.Watch(e.qp.RecvCQ.EntryAddr(e.recvCI), mlx.CQESize, cqWritten, w)
	}
	w.idle = idlePoll{t: t, first: t.Now() + toRead, period: period, busy: busy}
	t.Park(w.unpark)
	return true
}

// cqWritten is the watch on a parked worker's completion slots. Once a
// write makes one of them valid, it disarms the watches and wakes the
// loop at the first skipped poll at or after the write.
func cqWritten(a any) {
	w := a.(*Worker)
	ready := false
	for _, e := range w.Eps {
		if e.cqValid(e.qp.SendCQ, e.sendCI) || e.cqValid(e.qp.RecvCQ, e.recvCI) {
			ready = true
			break
		}
	}
	if !ready {
		return
	}
	w.Node.Mem.Unwatch(w)
	id := &w.idle
	j := units.Time(1)
	if now := id.t.Kernel().Now(); now > id.first {
		j += (now - id.first + id.period - 1) / id.period
	}
	id.polls = uint64(j)
	id.t.WakeAt(id.first + (j-1)*id.period)
}

// startWokenProgress accounts the polls a parked loop skipped — j
// progresses, j-1 of them empty, each after a busy post in the retry — and
// begins the j-th at its CQ read, where the spin would stand.
func (w *Worker) startWokenProgress(t *sim.Task) {
	id := &w.idle
	w.Stats.Progresses += id.polls
	w.Stats.EmptyPolls += id.polls - 1
	if id.busy {
		w.Stats.BusyPosts += id.polls
	}
	id.t = nil
	f := &w.progF
	f.pc = 1
	f.i = 0
	f.tok = profile.Token{}
	t.Call(f)
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
	// quiet: the last poll was empty and reposted no receive credits, so
	// it paused nothing after its CQ reads.
	quiet bool

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
				w.replF.e = e
				w.replF.pc = 0
				f.pc = 8
				t.Call(&w.replF)
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
			f.quiet = true
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
			f.quiet = false
			w.replF.e = e
			w.replF.pc = 0
			t.Call(&w.replF)
			return
		}
	}
}

// replenishFrame reposts all owed receive credits of one endpoint;
// visibility: each credit is posted at its own time (see recvsFrame).
type replenishFrame struct {
	e  *Ep
	pc int
}

func (f *replenishFrame) Step(t *sim.Task) {
	e := f.e
	for {
		switch f.pc {
		case 0:
			if e.owedRecvCredits == 0 {
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
			e.owedRecvCredits--
			f.pc = 0
		}
	}
}

// cqValid reads the CQ slot for consumer counter ci into the worker's
// scratch and reports whether its generation marks it valid.
func (e *Ep) cqValid(ring mlx.Ring, ci uint16) bool {
	e.w.Node.Mem.ReadInto(ring.EntryAddr(ci), e.w.scratch[:])
	return e.w.scratch[mlx.CQESize-1] == ring.Gen(ci)
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
	if err := e.w.cqe.DecodeFrom(e.w.scratch[:]); err != nil {
		panic(fmt.Sprintf("uct: corrupt CQE at ci=%d: %v", ci, err))
	}
	return &e.w.cqe
}
