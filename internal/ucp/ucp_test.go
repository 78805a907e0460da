package ucp

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/uct"
	"breakband/internal/units"
)

func harness(t *testing.T, signalPeriod int) (*node.System, *Worker, *Worker, *Ep, *Ep) {
	t.Helper()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.SignalPeriod = signalPeriod
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

// CallbackFunc adapts a function to a Callback. A nil CallbackFunc does
// nothing.
type CallbackFunc func(t *sim.Task)

func (f CallbackFunc) Complete(t *sim.Task) {
	if f != nil {
		f(t)
	}
}

// send runs a tagged send on e, storing its request in *sent (if non-nil)
// and failing the test if the send was rejected.
func send(t *testing.T, e *Ep, tag uint64, data []byte, cb CallbackFunc, sent **Request) simtest.Step {
	req := new(Request)
	if sent != nil {
		*sent = req
	}
	return simtest.Seq(
		func(tk *sim.Task) { e.StartTagSend(tk, req, tag, data, cb) },
		func(*sim.Task) {
			if err := e.LastSend(); err != nil {
				t.Fatalf("send tag %d: %v", tag, err)
			}
		},
	)
}

// recv posts a tagged receive on w and returns its request.
func recv(tk *sim.Task, w *Worker, tag uint64, cb CallbackFunc) *Request {
	req := new(Request)
	w.TagRecvNB(tk, req, tag, cb)
	return req
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
		func(tk *sim.Task) { rreq = recv(tk, w1, 42, func(cp *sim.Task) { recvDone = true }) },
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
			req := recv(tk, w1, 9, nil)
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
		func(tk *sim.Task) { e0.StartTagSend(tk, new(Request), 1, make([]byte, MaxBcopy+1), nil) },
		func(*sim.Task) {
			if err := e0.LastSend(); err == nil {
				t.Error("oversized eager send accepted")
			}
		},
	)
	sys.Run()
}

// TestQueueDeletesClearVacatedSlot pins the receive queues' deletes. The
// unexpected queue is packed (unexpQueue): a receive that matches from
// its middle leaves the other messages in order with their bytes, takes
// the oldest of duplicate tags first, and gets its own copy of the
// payload, which later pushes do not overwrite. Matching or cancelling a
// posted receive leaves no copy of it in the expected queue's backing
// array past its length, where it would keep a finished request
// reachable until a later append overwrote the slot.
func TestQueueDeletesClearVacatedSlot(t *testing.T) {
	sys, _, w1, _, _ := harness(t, 1)
	defer sys.Shutdown()
	simtest.Start(sys.K, "rx", func(tk *sim.Task) {
		q := &w1.unexpected
		for _, m := range []struct {
			tag  uint64
			data string
		}{{1, "one"}, {2, "two"}, {7, "seven-a"}, {3, "three"}, {7, "seven-b"}} {
			q.push(m.tag, []byte(m.data))
		}
		two := recv(tk, w1, 2, nil)
		if string(two.Data()) != "two" {
			t.Errorf("match from the middle delivered %q, want \"two\"", two.Data())
		}
		if dup := recv(tk, w1, 7, nil); string(dup.Data()) != "seven-a" {
			t.Errorf("duplicate tag delivered %q, want the oldest, \"seven-a\"", dup.Data())
		}
		// The pushes reuse the bytes the matches vacated.
		q.push(8, []byte("XXXXXXXXXXXX"))
		q.push(9, []byte("YYYYYYYYYYYY"))
		if string(two.Data()) != "two" {
			t.Errorf("a received payload changed to %q after later pushes", two.Data())
		}
		for _, want := range []struct {
			tag  uint64
			data string
		}{{1, "one"}, {3, "three"}, {7, "seven-b"}, {8, "XXXXXXXXXXXX"}, {9, "YYYYYYYYYYYY"}} {
			if q.tags.at(0) != want.tag {
				t.Fatalf("queue front has tag %d, want %d: order lost", q.tags.at(0), want.tag)
			}
			if got := recv(tk, w1, want.tag, nil); string(got.Data()) != want.data {
				t.Errorf("tag %d delivered %q, want %q", want.tag, got.Data(), want.data)
			}
		}
		if q.Len() != 0 {
			t.Errorf("%d messages left in the unexpected queue", q.Len())
		}

		recv(tk, w1, 3, nil)
		recv(tk, w1, 4, nil)
		w1.onEager(tk, appendEager(nil, 3, []byte{3}))
		if tail := w1.expected[:2][1]; tail != nil {
			t.Errorf("onEager left the matched request for tag %d past the queue", tail.tag)
		}
		recv(tk, w1, 5, nil)
		if !w1.CancelRecv(tk, w1.expected[0], errors.New("peer failed")) {
			t.Fatal("CancelRecv did not find the posted receive")
		}
		if tail := w1.expected[:2][1]; tail != nil {
			t.Errorf("CancelRecv left the cancelled request for tag %d past the queue", tail.tag)
		}
	})
	sys.Run()
}

// TestUnexpectedQueueMatchesReference drives the packed unexpected queue
// and a plain slice of messages with the same random pushes and matches:
// payloads up to MaxBcopy bytes, so they cross chunk boundaries, and few
// tags, so matches come from the front, the middle and the back. Every
// match must deliver what the reference delivers, and a drained queue
// keeps at most one chunk per column.
func TestUnexpectedQueueMatchesReference(t *testing.T) {
	type msg struct {
		tag  uint64
		data []byte
	}
	var q unexpQueue
	var ref []msg
	r := rng.New(1)
	for step := 0; step < 20000; step++ {
		tag := uint64(r.Intn(6))
		if r.Intn(100) < 55 {
			n := r.Intn(64)
			if r.Intn(20) == 0 {
				n = r.Intn(MaxBcopy + 1)
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(r.Uint64())
			}
			q.push(tag, data)
			ref = append(ref, msg{tag, data})
			continue
		}
		got, ok := q.take(tag)
		i := slices.IndexFunc(ref, func(m msg) bool { return m.tag == tag })
		if ok != (i >= 0) {
			t.Fatalf("step %d: take(%d) found %v, reference %v", step, tag, ok, i >= 0)
		}
		if i < 0 {
			continue
		}
		if !bytes.Equal(got, ref[i].data) {
			t.Fatalf("step %d: take(%d) delivered %d bytes unlike the reference's %d", step, tag, len(got), len(ref[i].data))
		}
		ref = slices.Delete(ref, i, i+1)
		if q.Len() != len(ref) {
			t.Fatalf("step %d: queue holds %d messages, reference %d", step, q.Len(), len(ref))
		}
	}
	for len(ref) > 0 {
		got, ok := q.take(ref[0].tag)
		if !ok || !bytes.Equal(got, ref[0].data) {
			t.Fatalf("draining: tag %d delivered %v (%d bytes), want %d bytes", ref[0].tag, ok, len(got), len(ref[0].data))
		}
		ref = ref[1:]
	}
	if c := [3]int{len(q.tags.chunks), len(q.lens.chunks), len(q.data.chunks)}; c[0] > 1 || c[1] > 1 || c[2] > 1 {
		t.Errorf("a drained queue keeps %v chunks per column, want at most 1", c)
	}
}

// TestUnexpectedQueueBytes gates what the unexpected queue costs to hold
// osu_mr's round: 57,792 eight-byte messages its receiver never matches.
// Packed, each costs its 8 bytes, its tag and its length, chunk slack
// included: about 18 B. A slice of per-message heap slices costs about
// 40 B and one heap object each; three growing slices cost 24.1 B.
func TestUnexpectedQueueBytes(t *testing.T) {
	const (
		msgs  = 57792
		maxPB = 24
	)
	data := make([]byte, 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	q := new(unexpQueue)
	for i := 0; i < msgs; i++ {
		q.push(uint64(i), data)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perMsg := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / msgs
	t.Logf("%d messages hold %.1f B each", q.Len(), perMsg)
	if perMsg > maxPB {
		t.Errorf("holding %d eight-byte messages costs %.1f B each, gate %d", msgs, perMsg, maxPB)
	}
	runtime.KeepAlive(q)
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
		func(tk *sim.Task) { rreq = recv(tk, w1, 3, nil) },
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

// TestSendQueuesReuseArrays cycles the worker's two send queues the way a
// message-rate window does: 192 sends posted, retired by three signaled
// completions of 64, and busy posts parked and drained. In steady state
// neither queue allocates: they reuse their backing arrays instead of
// reslicing their heads away.
func TestSendQueuesReuseArrays(t *testing.T) {
	sys, w0, _, e0, _ := harness(t, 64)
	defer sys.Shutdown()
	req := &Request{}
	var allocs float64
	simtest.Start(sys.K, "cycle", func(tk *sim.Task) {
		window := func() {
			for i := 0; i < 192; i++ {
				w0.inflight.Push(inflightSend{req: req, ep: e0.UctEp})
			}
			for i := 0; i < 3; i++ {
				w0.onSendComplete(tk, e0.UctEp, 64, nil)
			}
			for i := 0; i < 64; i++ {
				w0.pending.Push(pendingPost{ep: e0, req: req})
			}
			for w0.pending.Len() > 0 {
				w0.pending.Pop()
			}
		}
		window()
		allocs = testing.AllocsPerRun(100, window)
	})
	sys.K.Run()
	if allocs != 0 {
		t.Errorf("a steady-state window allocates %.2f times, want 0", allocs)
	}
	if w0.inflight.Len() != 0 || w0.Stats.SendCompletions != 192*102 {
		t.Errorf("%d sends left in flight, %d completions", w0.inflight.Len(), w0.Stats.SendCompletions)
	}
}
