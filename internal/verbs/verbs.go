// Package verbs provides an ibverbs-flavoured API over the simulated NIC —
// the "low-level communication framework (e.g. Verbs)" the paper names as
// the alternative LLP beneath communication stacks. It exists alongside
// internal/uct so systems written against verbs semantics (work requests,
// scatter-gather entries, batched completion polling) can run on the same
// calibrated hardware model; native Go has no verbs implementation (only cgo
// bindings), which is part of what this repository substitutes.
//
// The cost model reuses the calibrated LLP constants: an inline+signaled
// 8-byte post costs the paper's LLP_post, and polling one completion costs
// LLP_prog.
//
// The verbs data path is written as resumable sim.Frame state machines like
// internal/uct: callers use the Start*/Last* forms. One task drives a QP at
// a time.
package verbs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"breakband/internal/arena"
	"breakband/internal/config"
	"breakband/internal/mlx"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// Opcodes for work requests.
const (
	WROpRDMAWrite = iota
	WROpSend
)

// Send flags.
const (
	SendSignaled = 1 << iota
	SendInline
)

// Completion status.
const (
	WCSuccess = iota
	// WCRnrRetryExcErr mirrors IBV_WC_RNR_RETRY_EXC_ERR: the remote peer
	// kept answering receiver-not-ready NAKs past the QP's retry budget,
	// and the flushed work requests were never delivered.
	WCRnrRetryExcErr
	// WCFlushErr mirrors IBV_WC_WR_FLUSH_ERR: the work request was
	// flushed unexecuted because the QP was already in error state.
	WCFlushErr
	// WCRetryExcErr mirrors IBV_WC_RETRY_EXC_ERR: the transport retry
	// budget (ACK timeouts plus sequence-error NAKs) was exhausted
	// without forward progress and the flushed work requests were never
	// acknowledged.
	WCRetryExcErr
	// WCFatalErr mirrors IBV_WC_FATAL_ERR: the local device itself died
	// (NIC crash) and the work request can never execute.
	WCFatalErr
)

// wcStatus maps a device CQE status byte to the verbs completion status.
func wcStatus(s uint8) int {
	switch s {
	case mlx.CQERnrRetryExc:
		return WCRnrRetryExcErr
	case mlx.CQEFlushErr:
		return WCFlushErr
	case mlx.CQERetryExc:
		return WCRetryExcErr
	case mlx.CQEFatalErr:
		return WCFatalErr
	}
	return WCSuccess
}

// ErrQPFull mirrors ENOMEM from ibv_post_send on a full send queue.
var ErrQPFull = errors.New("verbs: send queue full")

// SGE is a scatter-gather entry.
type SGE struct {
	Addr   uint64
	Length uint32
}

// SendWR is a send work request (ibv_send_wr).
type SendWR struct {
	WRID       uint64
	Opcode     int
	Flags      int
	SGE        SGE
	RemoteAddr uint64
	// Inline payload used when Flags&SendInline is set and the data is
	// supplied directly (bypassing the SGE).
	InlineData []byte
}

// RecvWR is a receive work request.
type RecvWR struct {
	WRID uint64
	SGE  SGE
}

// WC is a work completion (ibv_wc).
type WC struct {
	WRID    uint64
	Status  int
	Opcode  int
	ByteLen uint32
	// Data carries inline-scattered receive payloads.
	Data []byte
}

// Context is the device context for one node (ibv_context).
type Context struct {
	Node *node.Node
	Cfg  *config.Config
}

// Open returns a device context.
func Open(n *node.Node, cfg *config.Config) *Context {
	return &Context{Node: n, Cfg: cfg}
}

// QP is a queue pair handle with its send and receive completion queues.
type QP struct {
	ctx *Context
	qp  *nicQP

	pi        uint16
	completed uint16
	sendCI    uint16
	recvCI    uint16

	// wrids maps the WQE counter to the caller's WRID for send
	// completions; receives track FIFO order.
	wrids   map[uint16]uint64
	recvWRs []RecvWR
	scratch [mlx.CQESize]byte
	// cqe is the scratch completion the poll paths decode into; its
	// payload is copied into the destination WC before the next decode.
	cqe mlx.CQE

	// lastPost is the most recent send-post outcome (see LastPostSend).
	lastPost error

	sendF     sendFrame
	recvF     recvFrame
	pollSendF pollFrame
	pollRecvF pollFrame
}

// nicQP aliases the device queue pair (kept small to avoid leaking device
// internals into API signatures).
type nicQP = deviceQP

// CreateQP builds a queue pair with the given depths.
func (c *Context) CreateQP(sqDepth, cqDepth int) *QP {
	return &QP{
		ctx:   c,
		qp:    c.Node.NIC.CreateQP(sqDepth, cqDepth),
		wrids: make(map[uint16]uint64),
	}
}

// Connect wires two QPs into a reliable connection (the RTR/RTS modify-QP
// dance collapsed to its effect).
func Connect(a, b *QP) { connectDevice(a.qp, b.qp) }

// StartPostSend begins posting one send work request (ibv_post_send). The
// inline+signaled small-message path costs the paper's LLP_post and goes out
// via PIO; other shapes take the DoorBell path with the NIC DMA-reading the
// descriptor and, for non-inline requests, the payload. The outcome is
// reported by LastPostSend once the frame returns.
func (q *QP) StartPostSend(t *sim.Task, wr *SendWR) {
	q.sendF.q = q
	q.sendF.pc = 0
	q.sendF.wr = wr
	t.Call(&q.sendF)
}

// LastPostSend reports the outcome of the most recently completed send-post
// frame.
func (q *QP) LastPostSend() error { return q.lastPost }

type sendFrame struct {
	q      *QP
	pc     int
	wr     *SendWR
	inline bool
	enc    [mlx.WQESize]byte
}

func (f *sendFrame) finish(t *sim.Task, err error) {
	f.q.lastPost = err
	f.wr = nil
	t.Return()
}

func (f *sendFrame) Step(t *sim.Task) {
	q := f.q
	sw := &q.ctx.Cfg.SW
	r := q.ctx.Node.Rand
	for {
		switch f.pc {
		case 0:
			wr := f.wr
			if int(q.pi-q.completed) >= q.qp.SQ.Depth {
				t.Advance(sw.BusyPost.Sample(r))
				f.finish(t, ErrQPFull)
				return
			}

			t.Advance(sw.LLPPostEntry.Sample(r))
			// The WQE is a stack value: Encode copies everything into the
			// frame's 64-byte descriptor, so the post path allocates
			// nothing.
			wqe := mlx.WQE{
				Signaled:   wr.Flags&SendSignaled != 0,
				WQEIdx:     q.pi,
				QPN:        q.qp.QPN,
				RemoteAddr: wr.RemoteAddr,
			}
			switch wr.Opcode {
			case WROpRDMAWrite:
				wqe.Opcode = mlx.OpRDMAWrite
			case WROpSend:
				wqe.Opcode = mlx.OpSend
			default:
				f.finish(t, fmt.Errorf("verbs: unsupported opcode %d", wr.Opcode))
				return
			}

			f.inline = wr.Flags&SendInline != 0 && len(wr.InlineData) <= mlx.InlineMax
			if f.inline {
				wqe.Inline = true
				wqe.Payload = wr.InlineData
			} else {
				wqe.Inline = false
				wqe.GatherAddr = wr.SGE.Addr
				wqe.GatherLen = wr.SGE.Length
			}
			enc, err := wqe.Encode()
			if err != nil {
				f.finish(t, err)
				return
			}
			f.enc = enc
			t.Advance(sw.MDSetup.Sample(r))
			t.Advance(sw.BarrierMD.Sample(r))
			// No Pause: the doorbell record is written by the CPU but read
			// by nothing in the device model (the NIC learns the producer
			// counter through the MMIO doorbell), so the early commit is
			// unobservable.
			var dbr [8]byte
			binary.LittleEndian.PutUint16(dbr[:], q.pi+1)
			q.ctx.Node.Mem.Write(q.qp.DBRAddr, dbr[:])
			t.Advance(sw.DBCIncrement.Sample(r))
			t.Advance(sw.BarrierDBC.Sample(r))

			if f.inline {
				// BlueFlame PIO: the whole descriptor in one MMIO write.
				t.Advance(sw.PIOCopy.Sample(r))
				f.pc = 1
			} else {
				// Ring write + 8-byte DoorBell; the NIC fetches by DMA.
				t.Advance(sw.SQRingWrite.Sample(r))
				f.pc = 2
			}
			if t.Pause() {
				return
			}
		case 1:
			q.ctx.Node.RC.MMIOWrite(q.qp.BFAddr, f.enc[:])
			f.pc = 4
		case 2:
			q.ctx.Node.Mem.Write(q.qp.SQ.EntryAddr(q.pi), f.enc[:])
			t.Advance(sw.DoorbellRing.Sample(r))
			f.pc = 3
			if t.Pause() {
				return
			}
		case 3:
			var db [8]byte
			binary.LittleEndian.PutUint16(db[:], q.pi+1)
			q.ctx.Node.RC.MMIOWrite(q.qp.DBAddr, db[:])
			f.pc = 4
		case 4:
			t.Advance(sw.LLPPostExit.Sample(r))
			q.wrids[q.pi] = f.wr.WRID
			q.pi++
			f.finish(t, nil)
			return
		}
	}
}

// StartPostRecv begins posting one receive work request (ibv_post_recv).
func (q *QP) StartPostRecv(t *sim.Task, wr *RecvWR) {
	q.recvF.q = q
	q.recvF.pc = 0
	q.recvF.wr = *wr
	t.Call(&q.recvF)
}

type recvFrame struct {
	q  *QP
	pc int
	wr RecvWR
}

func (f *recvFrame) Step(t *sim.Task) {
	q := f.q
	switch f.pc {
	case 0:
		t.Advance(q.ctx.Cfg.SW.PostRecv.Sample(q.ctx.Node.Rand))
		// The credit must be visible to in-flight deliveries at post time.
		f.pc = 1
		if t.Pause() {
			return
		}
		f.Step(t)
	case 1:
		q.recvWRs = append(q.recvWRs, f.wr)
		q.qp.PostRecv(f.wr.SGE.Addr)
		t.Return()
	}
}

// StartPollSendCQ begins polling up to len(wcs) send completions
// (ibv_poll_cq). With unsignaled requests one CQE retires a batch, but verbs
// reports only the signaled request's WC, matching ibverbs semantics. The
// completion count is reported by LastPoll once the frame returns.
func (q *QP) StartPollSendCQ(t *sim.Task, wcs []WC) {
	q.pollSendF.q = q
	q.pollSendF.pc = 0
	q.pollSendF.recv = false
	q.pollSendF.wcs = wcs
	q.pollSendF.n = 0
	t.Call(&q.pollSendF)
}

// StartPollRecvCQ begins polling up to len(wcs) receive completions. Each
// WC.Data is an independent payload: inline scatters are copied into the WC
// slot's own reusable buffer (so a caller that re-polls with the same wcs
// slice pays no steady-state allocations, and a batched poll never aliases
// payloads), and remains valid until that slot is reused by a later poll.
func (q *QP) StartPollRecvCQ(t *sim.Task, wcs []WC) {
	q.pollRecvF.q = q
	q.pollRecvF.pc = 0
	q.pollRecvF.recv = true
	q.pollRecvF.wcs = wcs
	q.pollRecvF.n = 0
	t.Call(&q.pollRecvF)
}

// LastPoll reports the completion count of the most recently completed poll
// frame for the given direction (recv selects the receive-CQ frame).
func (q *QP) LastPoll(recv bool) int {
	if recv {
		return q.pollRecvF.n
	}
	return q.pollSendF.n
}

type pollFrame struct {
	q    *QP
	pc   int
	recv bool
	wcs  []WC
	n    int

	// Recv-path locals preserved across the large-payload pause.
	wr      RecvWR
	byteCnt uint32
}

func (f *pollFrame) finish(t *sim.Task) {
	f.wcs = nil
	t.Return()
}

func (f *pollFrame) Step(t *sim.Task) {
	q := f.q
	sw := &q.ctx.Cfg.SW
	r := q.ctx.Node.Rand
	for {
		switch f.pc {
		case 0: // loop head: one CQ peek per iteration
			if f.n >= len(f.wcs) {
				f.finish(t)
				return
			}
			t.Advance(sw.LLPProgBarrier.Sample(r))
			f.pc = 1
			if t.Pause() {
				return
			}
		case 1:
			ring, ci := q.qp.SendCQ, q.sendCI
			if f.recv {
				ring, ci = q.qp.RecvCQ, q.recvCI
			}
			q.ctx.Node.Mem.ReadInto(ring.EntryAddr(ci), q.scratch[:])
			if q.scratch[mlx.CQESize-1] != ring.Gen(ci) {
				t.Advance(sw.LLPProgFailChk.Sample(r))
				f.finish(t)
				return
			}
			t.Advance(sw.LLPProgCQERead.Sample(r))
			cqe := &q.cqe
			if err := cqe.DecodeFrom(q.scratch[:]); err != nil {
				panic(fmt.Sprintf("verbs: corrupt CQE: %v", err))
			}
			if !f.recv {
				q.sendCI++
				q.completed = cqe.WQECounter + 1
				wrid := q.wrids[cqe.WQECounter]
				delete(q.wrids, cqe.WQECounter)
				status := wcStatus(cqe.Status)
				// Keep the slot's reusable Data buffer (send completions
				// carry no payload, but a caller sharing one wcs slice
				// between send and recv polls must not lose the recv
				// path's buffer).
				f.wcs[f.n] = WC{WRID: wrid, Status: status, Opcode: WROpRDMAWrite, Data: f.wcs[f.n].Data[:0]}
				f.n++
				t.Advance(sw.LLPProgMisc.Sample(r))
				f.pc = 0
				continue
			}
			q.recvCI++
			if len(q.recvWRs) == 0 {
				panic("verbs: recv CQE without a posted receive")
			}
			f.wr = q.recvWRs[0]
			q.recvWRs = q.recvWRs[1:]
			if st := wcStatus(cqe.Status); st != WCSuccess {
				// Flushed receive (QP errored / NIC crashed): the work
				// request retires unexecuted, carrying no payload.
				f.wcs[f.n] = WC{WRID: f.wr.WRID, Status: st, Opcode: WROpSend, Data: f.wcs[f.n].Data[:0]}
				f.n++
				t.Advance(sw.LLPProgMisc.Sample(r))
				f.pc = 0
				continue
			}
			if int(cqe.ByteCnt) > mlx.ScatterMax {
				// Large payload: it was DMA-written to the posted buffer.
				// Read it into this WC's own reusable buffer.
				f.byteCnt = cqe.ByteCnt
				t.Advance(units.Time(cqe.ByteCnt) * sw.MemcpyPerByte)
				f.pc = 2
				if t.Pause() {
					return
				}
				continue
			}
			// Copy the inline scatter out of the scratch CQE into this
			// WC's own buffer: the scratch is overwritten by the next
			// decode, possibly within this very call.
			data := append(f.wcs[f.n].Data[:0], cqe.Payload...)
			f.wcs[f.n] = WC{WRID: f.wr.WRID, Status: WCSuccess, Opcode: WROpSend, ByteLen: cqe.ByteCnt, Data: data}
			f.n++
			t.Advance(sw.LLPProgMisc.Sample(r))
			f.pc = 0
		case 2:
			data := arena.Grow(f.wcs[f.n].Data, int(f.byteCnt))
			q.ctx.Node.Mem.ReadInto(f.wr.SGE.Addr, data)
			f.wcs[f.n] = WC{WRID: f.wr.WRID, Status: WCSuccess, Opcode: WROpSend, ByteLen: f.byteCnt, Data: data}
			f.n++
			t.Advance(sw.LLPProgMisc.Sample(r))
			f.pc = 0
		}
	}
}

// Outstanding reports send slots in use.
func (q *QP) Outstanding() int { return int(q.pi - q.completed) }
