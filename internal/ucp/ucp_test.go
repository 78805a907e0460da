package ucp

import (
	"bytes"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/uct"
	"breakband/internal/units"
)

func harness(t *testing.T, signalPeriod int) (*node.System, *Worker, *Worker, *Ep, *Ep) {
	t.Helper()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Bench.SignalPeriod = signalPeriod
	sys := node.NewSystem(cfg, 2)
	u0 := uct.NewWorker(sys.Nodes[0], cfg)
	u1 := uct.NewWorker(sys.Nodes[1], cfg)
	w0 := NewWorker(u0, cfg)
	w1 := NewWorker(u1, cfg)
	e0 := w0.NewEp(uct.PIOInline)
	e1 := w1.NewEp(uct.PIOInline)
	uct.Connect(e0.UctEp, e1.UctEp)
	return sys, w0, w1, e0, e1
}

// send runs a tagged send on e, storing its request in *sent (if non-nil)
// and failing the test if the send was rejected.
func send(t *testing.T, e *Ep, tag uint64, data []byte, cb Callback, sent **Request) simtest.Step {
	return simtest.Seq(
		func(tk *sim.Task) { e.StartTagSend(tk, tag, data, cb) },
		func(*sim.Task) {
			req, err := e.LastSend()
			if err != nil {
				t.Fatalf("send tag %d: %v", tag, err)
			}
			if sent != nil {
				*sent = req
			}
		},
	)
}

func postRecvs(e *Ep, n int) simtest.Step {
	return func(tk *sim.Task) { e.UctEp.StartPostRecvs(tk, n) }
}

func sleep(d units.Time) simtest.Step {
	return func(tk *sim.Task) { tk.Advance(d) }
}

// progressUntil drives w's progress engine until done reports true.
func progressUntil(w *Worker, done func() bool) simtest.Step {
	return simtest.While(func() bool { return !done() }, w.StartProgress)
}

func TestTagSendRecv(t *testing.T) {
	sys, w0, w1, e0, e1 := harness(t, 1)
	defer sys.Shutdown()
	payload := []byte{1, 2, 3}
	var sendDone, recvDone bool
	var rreq, sreq *Request
	simtest.Start(sys.K, "rx",
		postRecvs(e1, 8),
		func(tk *sim.Task) { rreq = w1.TagRecvNB(tk, 42, func(cp *sim.Task) { recvDone = true }) },
		progressUntil(w1, func() bool { return rreq.Completed() }),
		func(*sim.Task) {
			if !bytes.Equal(rreq.Data(), payload) {
				t.Errorf("received %v", rreq.Data())
			}
		},
	)
	simtest.Start(sys.K, "tx",
		sleep(units.Microsecond),
		send(t, e0, 42, payload, func(cp *sim.Task) { sendDone = true }, &sreq),
		progressUntil(w0, func() bool { return sreq.Completed() }),
	)
	sys.Run()
	if !sendDone || !recvDone {
		t.Errorf("callbacks: send=%v recv=%v", sendDone, recvDone)
	}
}

func TestUnexpectedMessage(t *testing.T) {
	sys, w0, w1, e0, e1 := harness(t, 1)
	defer sys.Shutdown()
	simtest.Start(sys.K, "rx",
		postRecvs(e1, 8),
		// Drive progress without a posted receive: the message must land
		// in the unexpected queue.
		progressUntil(w1, func() bool { return w1.Stats.UnexpectedMsgs > 0 }),
		// A matching receive posted afterwards completes immediately.
		func(tk *sim.Task) {
			req := w1.TagRecvNB(tk, 9, nil)
			if !req.Completed() {
				t.Error("late receive did not match the unexpected queue")
			}
			if !bytes.Equal(req.Data(), []byte{0xFF}) {
				t.Errorf("unexpected payload = %v", req.Data())
			}
		},
	)
	simtest.Start(sys.K, "tx",
		sleep(units.Microsecond),
		send(t, e0, 9, []byte{0xFF}, nil, nil),
		progressUntil(w0, func() bool { return w0.Uct.Stats.SendCQEs > 0 }),
	)
	sys.Run()
}

func TestPendingBusyPosts(t *testing.T) {
	sys, w0, w1, e0, e1 := harness(t, 64)
	defer sys.Shutdown()
	depth := e0.UctEp.QP().SQ.Depth
	// A multiple of the unsignaled period past the queue depth, so the
	// final batch is retired by a signaled CQE (real UCX would flush a
	// ragged tail; the benchmarks always post aligned windows).
	n := depth + 64
	var completed int
	simtest.Start(sys.K, "rx",
		postRecvs(e1, 512),
		progressUntil(w1, func() bool { return int(w1.Stats.RecvCompletions+w1.Stats.UnexpectedMsgs) >= n }),
	)
	reqs := make([]*Request, n)
	tx := []simtest.Step{sleep(units.Microsecond)}
	for i := range reqs {
		tx = append(tx, send(t, e0, uint64(i), []byte{byte(i)}, func(cp *sim.Task) { completed++ }, &reqs[i]))
	}
	tx = append(tx,
		func(*sim.Task) {
			if w0.Stats.BusyPosts == 0 {
				t.Error("expected busy posts beyond the queue depth")
			}
		},
		progressUntil(w0, func() bool {
			for _, r := range reqs {
				if !r.Completed() {
					return false
				}
			}
			return true
		}),
	)
	simtest.Start(sys.K, "tx", tx...)
	sys.Run()
	if completed != n {
		t.Errorf("completed %d of %d", completed, n)
	}
	if w0.Stats.PendingExecuted != w0.Stats.BusyPosts {
		t.Errorf("pending executed %d != busy posts %d", w0.Stats.PendingExecuted, w0.Stats.BusyPosts)
	}
}

func TestUnsignaledBatchCompletion(t *testing.T) {
	sys, w0, w1, e0, e1 := harness(t, 8)
	defer sys.Shutdown()
	const n = 16
	var completions int
	simtest.Start(sys.K, "rx",
		postRecvs(e1, 64),
		progressUntil(w1, func() bool { return int(w1.Stats.RecvCompletions+w1.Stats.UnexpectedMsgs) >= n }),
	)
	tx := []simtest.Step{sleep(units.Microsecond)}
	for i := 0; i < n; i++ {
		tx = append(tx, send(t, e0, uint64(i), []byte{1}, func(cp *sim.Task) { completions++ }, nil))
	}
	tx = append(tx, progressUntil(w0, func() bool { return completions >= n }))
	simtest.Start(sys.K, "tx", tx...)
	sys.Run()
	// 16 sends at c=8 -> exactly 2 transport CQEs.
	if got := w0.Uct.Stats.SendCQEs; got != 2 {
		t.Errorf("send CQEs = %d, want 2", got)
	}
}

func TestEagerSizeLimit(t *testing.T) {
	sys, _, _, e0, _ := harness(t, 1)
	defer sys.Shutdown()
	simtest.Start(sys.K, "tx",
		func(tk *sim.Task) { e0.StartTagSend(tk, 1, make([]byte, MaxBcopy+1), nil) },
		func(*sim.Task) {
			if _, err := e0.LastSend(); err == nil {
				t.Error("oversized eager send accepted")
			}
		},
	)
	sys.Run()
}

func TestBcopyPathSendRecv(t *testing.T) {
	sys, w0, w1, e0, e1 := harness(t, 1)
	defer sys.Shutdown()
	payload := make([]byte, 2048) // beyond MaxEager: buffered-copy path
	for i := range payload {
		payload[i] = byte(i)
	}
	var rreq, sreq *Request
	simtest.Start(sys.K, "rx",
		postRecvs(e1, 8),
		func(tk *sim.Task) { rreq = w1.TagRecvNB(tk, 3, nil) },
		progressUntil(w1, func() bool { return rreq.Completed() }),
		func(*sim.Task) {
			if !bytes.Equal(rreq.Data(), payload) {
				t.Error("bcopy payload corrupted")
			}
		},
	)
	simtest.Start(sys.K, "tx",
		sleep(units.Microsecond),
		send(t, e0, 3, payload, nil, &sreq),
		progressUntil(w0, func() bool { return sreq.Completed() }),
	)
	sys.Run()
}
