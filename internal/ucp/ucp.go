// Package ucp implements the high-level communication protocols (the HLP's
// lower half): a UCP-style layer on top of uct providing tagged,
// request-based nonblocking sends and receives.
//
// It reproduces the protocol behaviours the paper's §6 analysis depends on:
//
//   - Unsignaled completions: only every c-th transport post is signaled;
//     one CQE retires the whole batch, amortizing progress cost (c = 64).
//   - Pending queue: a busy post (transmit queue full) is queued and its
//     LLP_post is executed later, during progress — so initiation cost moves
//     into the progress phase, which the paper's measurement methodology
//     explicitly corrects for.
//   - Registered callbacks: completions run upper-layer (MPICH) callbacks
//     from inside the progress call chain, before uct_worker_progress
//     returns.
//
// The receive callback, the nested upper-layer callback included, is the
// ucp_recv_cb scope on the node's profiler (internal/profile), timed when
// the run selects it.
//
// Like internal/uct, the data path is written as resumable sim.Frame state
// machines: callers use StartTagSend/StartProgress plus the Last* getters.
// One task may drive a Worker (and each Ep) at a time.
package ucp

import (
	"encoding/binary"
	"fmt"
	"slices"

	"breakband/internal/config"
	"breakband/internal/fifo"
	"breakband/internal/profile"
	"breakband/internal/sim"
	"breakband/internal/uct"
)

// amEager is the active-message id carrying eager tagged messages.
const amEager uint8 = 1

// tagHeaderBytes is the eager protocol header (the 8-byte tag).
const tagHeaderBytes = 8

// MaxEager is the largest payload an eager short send can carry.
const MaxEager = 32 - tagHeaderBytes

// MaxBcopy is the largest payload the eager buffered-copy path carries
// (larger transfers would use a rendezvous protocol, out of scope for the
// paper's small-message analysis).
const MaxBcopy = uct.MaxBcopy - tagHeaderBytes

// Callback is an upper-layer completion callback, invoked from inside
// progress. It must be pause-free (Advance only).
type Callback func(t *sim.Task)

// Request is a nonblocking operation handle.
type Request struct {
	completed bool
	err       error
	cb        Callback
	// recv-side fields
	tag  uint64
	data []byte
}

// Completed reports whether the operation has finished — successfully or
// with an error (every request terminates; inspect Err to distinguish).
func (r *Request) Completed() bool { return r.completed }

// Err reports the failure that terminated the request, nil on success (or
// while still in flight). A send fails when its endpoint's QP enters the
// error state (retry exhaustion against a dead peer, a local NIC crash); a
// receive fails when it is cancelled against an errored endpoint.
func (r *Request) Err() error { return r.err }

// Data returns the received payload (valid once a receive completes).
func (r *Request) Data() []byte { return r.data }

// inflightSend pairs a posted-but-uncompleted send with the endpoint that
// carries it, so error completions can be attributed to the right requests.
type inflightSend struct {
	req *Request
	ep  *uct.Ep
}

type pendingPost struct {
	ep      *Ep
	payload []byte
	req     *Request
}

type unexpMsg struct {
	tag  uint64
	data []byte
}

// Stats counts UCP-level events.
type Stats struct {
	Sends, Recvs    uint64
	BusyPosts       uint64
	PendingExecuted uint64
	SendCompletions uint64
	RecvCompletions uint64
	UnexpectedMsgs  uint64
	// SendFailures and RecvFailures count requests terminated with an
	// error instead of a delivery (endpoint failure propagation).
	SendFailures uint64
	RecvFailures uint64
}

// Worker is the UCP progress context on one core.
type Worker struct {
	Uct *uct.Worker
	Cfg *config.Config

	// inflight tracks successfully posted, uncompleted sends in post
	// order (the reliable connection completes in order), each tagged
	// with its carrying endpoint for error attribution.
	inflight fifo.Queue[inflightSend]
	pending  fifo.Queue[pendingPost]

	expected   []*Request
	unexpected []unexpMsg

	Stats Stats

	progF progressFrame
}

// NewWorker wraps a uct worker. It registers the send-completion and
// active-message callbacks with the LLP.
func NewWorker(u *uct.Worker, cfg *config.Config) *Worker {
	w := &Worker{Uct: u, Cfg: cfg}
	w.progF.w = w
	u.SetSendCompletion(w.onSendComplete)
	u.SetAmHandler(amEager, w.onEager)
	return w
}

// Ep is a UCP endpoint bound to a uct endpoint.
type Ep struct {
	W     *Worker
	UctEp *uct.Ep

	sendF tagSendFrame
}

// NewEp creates a UCP endpoint over a fresh uct endpoint using the
// configured unsignaled-completion period.
func (w *Worker) NewEp(mode uct.PostMode) *Ep {
	e := &Ep{W: w, UctEp: w.Uct.NewEp(mode, w.Cfg.SignalPeriod)}
	e.sendF.e = e
	return e
}

// Err reports the transport failure recorded on the underlying endpoint
// (nil while healthy). Once set, sends short-circuit with the error and
// posted receives from this peer can be cancelled — see CancelRecv.
func (e *Ep) Err() error { return e.UctEp.Err }

// encodeEager builds the eager wire payload: 8-byte tag header + data.
func encodeEager(tag uint64, data []byte) []byte {
	buf := make([]byte, tagHeaderBytes+len(data))
	binary.LittleEndian.PutUint64(buf, tag)
	copy(buf[tagHeaderBytes:], data)
	return buf
}

// StartTagSend initiates a nonblocking tagged send (ucp_tag_send_nb). cb
// runs when the operation completes. A full transmit queue does not fail the
// operation: it is queued as pending and posted during progress. Payloads up
// to MaxEager go through the inline short path; larger ones (to MaxBcopy)
// through the buffered-copy path, as UCX selects by size. The request and
// initiation error are reported by LastSend once the frame returns.
func (e *Ep) StartTagSend(t *sim.Task, tag uint64, data []byte, cb Callback) {
	f := &e.sendF
	f.pc = 0
	f.tag = tag
	f.data = data
	f.cb = cb
	t.Call(f)
}

// LastSend reports the outcome of the most recently completed tag-send
// frame.
func (e *Ep) LastSend() (*Request, error) { return e.sendF.res, e.sendF.err }

// tagSendFrame runs the eager tagged-send initiation.
type tagSendFrame struct {
	e    *Ep
	pc   int
	tag  uint64
	data []byte
	cb   Callback

	payload []byte
	req     *Request
	res     *Request
	err     error
}

func (f *tagSendFrame) Step(t *sim.Task) {
	e := f.e
	w := e.W
	for {
		switch f.pc {
		case 0:
			if len(f.data) > MaxBcopy {
				f.res, f.err = nil, fmt.Errorf("ucp: eager send limited to %d bytes, got %d", MaxBcopy, len(f.data))
				t.Return()
				return
			}
			t.Advance(w.Cfg.SW.UcpIsend.Sample(w.Uct.Node.Rand))
			w.Stats.Sends++
			f.req = &Request{cb: f.cb}
			f.payload = encodeEager(f.tag, f.data)
			f.pc = 1
			if len(f.data) <= MaxEager {
				e.UctEp.StartAmShort(t, amEager, f.payload)
			} else {
				e.UctEp.StartAmBcopy(t, amEager, f.payload)
			}
			return
		case 1:
			switch err := e.UctEp.LastPost(); err {
			case nil:
				w.inflight.Push(inflightSend{req: f.req, ep: e.UctEp})
			case uct.ErrNoResource:
				// Busy post: schedule for execution during progress
				// (paper §6 caveat one).
				w.Stats.BusyPosts++
				t.Advance(w.Cfg.SW.UcpPending.Sample(w.Uct.Node.Rand))
				w.pending.Push(pendingPost{ep: e, payload: f.payload, req: f.req})
			default:
				f.res, f.err = nil, err
				t.Return()
				return
			}
			f.res, f.err = f.req, nil
			f.req = nil
			f.data = nil
			f.payload = nil
			t.Return()
			return
		}
	}
}

// TagRecvNB posts a nonblocking tagged receive (matching is exact-tag; the
// benchmarks and examples do not use wildcards). It is pause-free, so it
// needs no Start form.
func (w *Worker) TagRecvNB(t *sim.Task, tag uint64, cb Callback) *Request {
	w.Stats.Recvs++
	req := &Request{cb: cb, tag: tag}
	// Check the unexpected queue first.
	for i, m := range w.unexpected {
		if m.tag == tag {
			w.unexpected = slices.Delete(w.unexpected, i, i+1)
			w.completeRecv(t, req, m.data)
			return req
		}
	}
	w.expected = append(w.expected, req)
	return req
}

// StartProgress begins one ucp_worker_progress: drive the pending queue,
// then the LLP. The number of LLP operations retired is reported by
// LastProgress once the frame returns.
func (w *Worker) StartProgress(t *sim.Task) {
	w.progF.pc = 0
	t.Call(&w.progF)
}

// LastProgress reports the LLP operation count retired by the most recently
// completed progress frame.
func (w *Worker) LastProgress() int { return w.progF.n }

// progressFrame executes deferred LLP_posts for busy posts while slots are
// free, then runs one LLP progress.
type progressFrame struct {
	w  *Worker
	pc int
	n  int
}

func (f *progressFrame) Step(t *sim.Task) {
	w := f.w
	for {
		switch f.pc {
		case 0:
			t.Advance(w.Cfg.SW.UcpProgress.Sample(w.Uct.Node.Rand))
			f.pc = 1
		case 1:
			if w.pending.Len() == 0 || w.pending.At(0).ep.UctEp.FreeSlots() == 0 {
				f.pc = 3
				continue
			}
			pp := w.pending.At(0)
			f.pc = 2
			if len(pp.payload) > tagHeaderBytes+MaxEager {
				pp.ep.UctEp.StartAmBcopy(t, amEager, pp.payload)
			} else {
				pp.ep.UctEp.StartAmShort(t, amEager, pp.payload)
			}
			return
		case 2:
			pp := w.pending.At(0)
			switch err := pp.ep.UctEp.LastPost(); {
			case err == nil:
				w.pending.Pop()
				w.inflight.Push(inflightSend{req: pp.req, ep: pp.ep.UctEp})
				w.Stats.PendingExecuted++
				f.pc = 1
			case err == uct.ErrNoResource:
				// Raced with another consumer of the slot.
				f.pc = 3
			default:
				// The endpoint failed while the post sat in the pending
				// queue; it will never be transmitted. Terminate the
				// request with the error instead of retrying forever.
				w.pending.Pop()
				w.failSend(t, pp.req, err)
				f.pc = 1
			}
		case 3:
			f.pc = 4
			w.Uct.StartProgress(t)
			return
		case 4:
			f.n = w.Uct.LastProgress()
			t.Return()
			return
		}
	}
}

// onSendComplete retires the n oldest in-flight sends (one signaled CQE
// covers a whole unsignaled batch). A successful completion retires the
// globally oldest n — the reliable connection completes in order. An error
// completion (the endpoint's QP failed and flushed its queue) retires the
// oldest n posted on that endpoint, terminating each with the error: the
// other endpoints' in-flight sends are unaffected.
func (w *Worker) onSendComplete(t *sim.Task, ep *uct.Ep, n int, err error) {
	if err != nil {
		for i := 0; i < w.inflight.Len() && n > 0; {
			if w.inflight.At(i).ep != ep {
				i++
				continue
			}
			req := w.inflight.At(i).req
			w.inflight.Remove(i)
			n--
			w.failSend(t, req, err)
		}
		return
	}
	if n > w.inflight.Len() {
		panic(fmt.Sprintf("ucp: completion for %d sends with only %d in flight", n, w.inflight.Len()))
	}
	// The callbacks are pause-free and never touch the queue, so popping
	// each send just before its callback retires the same n.
	for ; n > 0; n-- {
		s := w.inflight.Pop()
		t.Advance(w.Cfg.SW.UcpSendCB.Sample(w.Uct.Node.Rand))
		s.req.completed = true
		w.Stats.SendCompletions++
		if s.req.cb != nil {
			s.req.cb(t)
		}
	}
}

// failSend terminates a send request with an error; the upper-layer
// callback still runs so MPI request machinery observes the completion.
func (w *Worker) failSend(t *sim.Task, req *Request, err error) {
	req.err = err
	req.completed = true
	w.Stats.SendFailures++
	if req.cb != nil {
		req.cb(t)
	}
}

// CancelRecv terminates a posted-but-unmatched receive with an error (the
// source endpoint died and nothing will arrive). It reports false if the
// request is no longer expected — it already completed, possibly with data
// that arrived before the failure. Mirrors the CQEFlushErr contract: flushed
// operations complete with an error instead of hanging.
func (w *Worker) CancelRecv(t *sim.Task, req *Request, err error) bool {
	for i, q := range w.expected {
		if q == req {
			w.expected = slices.Delete(w.expected, i, i+1)
			req.err = err
			req.completed = true
			w.Stats.RecvFailures++
			if req.cb != nil {
				req.cb(t)
			}
			return true
		}
	}
	return false
}

// onEager handles an arriving eager message inside uct progress.
func (w *Worker) onEager(t *sim.Task, payload []byte) {
	if len(payload) < tagHeaderBytes {
		panic("ucp: short eager payload")
	}
	tag := binary.LittleEndian.Uint64(payload)
	data := append([]byte(nil), payload[tagHeaderBytes:]...)
	for i, req := range w.expected {
		if req.tag == tag {
			w.expected = slices.Delete(w.expected, i, i+1)
			w.completeRecv(t, req, data)
			return
		}
	}
	w.Stats.UnexpectedMsgs++
	w.unexpected = append(w.unexpected, unexpMsg{tag: tag, data: data})
}

// completeRecv runs the UCP receive callback (its cost is the paper's
// "Callback for a completed MPI_Irecv in UCP") and then the registered
// upper-layer callback. The ucp_recv_cb scope wraps both, as real
// instrumentation wrapping the registered callback would.
func (w *Worker) completeRecv(t *sim.Task, req *Request, data []byte) {
	prof := w.Uct.Node.Prof
	tok := prof.Begin(t, profile.UCPRecvCB)
	t.Advance(w.Cfg.SW.UcpRecvCB.Sample(w.Uct.Node.Rand))
	req.data = data
	req.completed = true
	w.Stats.RecvCompletions++
	if req.cb != nil {
		req.cb(t)
	}
	prof.End(t, tok)
}
