package ucp

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/profile"
	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/topo"
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
	payload := make([]byte, 2048) // too large to ride inline: the buffered-copy path
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

// TestSendCompletesOnItsOwnEndpoint: a worker with two endpoints completes
// each send on its own endpoint's CQE. On a radix-4 fat-tree node 0 sends
// one byte to node 2, on the other leaf, and then one to node 1, on its
// own. The near send's CQE is polled first and completes the near request;
// the far request completes on the far send's CQE, not on the near one.
func TestSendCompletesOnItsOwnEndpoint(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.SignalPeriod = 1
	cfg.Topology = topo.Spec{Kind: topo.FatTree, Radix: 4}
	sys := node.NewSystem(cfg, 4)
	defer sys.Shutdown()
	var w [3]*Worker
	for i := range w {
		w[i] = NewWorker(uct.NewWorker(sys.Nodes[i], cfg), cfg)
	}
	far, near := w[0].NewEp(uct.PIOInline), w[0].NewEp(uct.PIOInline)
	for _, c := range []struct {
		e    *Ep
		peer *Worker
	}{{far, w[2]}, {near, w[1]}} {
		pe := c.peer.NewEp(uct.PIOInline)
		uct.Connect(c.e.UctEp, pe.UctEp)
		simtest.Start(sys.K, "rx", postRecvs(pe, 8))
	}
	var farAt, nearAt units.Time
	var farReq, nearReq *Request
	simtest.Start(sys.K, "tx",
		sleep(units.Microsecond),
		send(t, far, 1, []byte{1}, func(tk *sim.Task) { farAt = tk.Now() }, &farReq),
		send(t, near, 2, []byte{2}, func(tk *sim.Task) { nearAt = tk.Now() }, &nearReq),
		progressUntil(w[0], func() bool { return farReq.Completed() && nearReq.Completed() }))
	sys.Run()
	if wantNear, wantFar := units.Time(2719350), units.Time(3534380); nearAt != wantNear || farAt != wantFar {
		t.Errorf("near send completed at %v and far at %v; want %v and %v, each on its own CQE", nearAt, farAt, wantNear, wantFar)
	}
	if far.inflight.Len() != 0 || near.inflight.Len() != 0 {
		t.Errorf("%d far and %d near sends left in flight", far.inflight.Len(), near.inflight.Len())
	}
}

// TestSendQueuesReuseArrays cycles the two send queues the way a
// message-rate window does: 192 sends posted on the endpoint, retired by
// three signaled completions of 64, and busy posts parked on the worker and
// drained. In steady state neither queue allocates: they reuse their
// backing arrays instead of reslicing their heads away.
func TestSendQueuesReuseArrays(t *testing.T) {
	sys, w0, _, e0, _ := harness(t, 64)
	defer sys.Shutdown()
	req := &Request{}
	var allocs float64
	simtest.Start(sys.K, "cycle", func(tk *sim.Task) {
		window := func() {
			for i := 0; i < 192; i++ {
				e0.inflight.Push(req)
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
	if e0.inflight.Len() != 0 || w0.Stats.SendCompletions != 192*102 {
		t.Errorf("%d sends left in flight, %d completions", e0.inflight.Len(), w0.Stats.SendCompletions)
	}
}

// spinFrame is StartProgressUntil spelled out over StartProgress: test
// done, and while it fails, progress the worker, with no pause in between
// — the wait loop without its parking.
type spinFrame struct {
	w    *Worker
	done func() bool
}

func (f *spinFrame) Step(t *sim.Task) {
	if f.done() {
		t.Return()
		return
	}
	f.w.StartProgress(t)
}

// waitCase is the system of one ucp wait run: its noise level, a scope
// selected on both nodes' profilers, the PCIe propagation when set, and
// the drop rate; parks says whether the waits park there.
type waitCase struct {
	name  string
	noise config.NoiseLevel
	scope profile.Scope
	prop  units.Time
	drop  float64
	parks bool
}

var waitCases = []waitCase{
	{"noiseoff", config.NoiseOff, profile.None, 0, 0, true},
	{"noiseon", config.NoiseOn, profile.None, 0, 0, true},
	{"progress-profiled", config.NoiseOff, profile.LLPProg, 0, 0, false},
	{"noiseon-progress-profiled", config.NoiseOn, profile.LLPProg, 0, 0, false},
	{"noiseon-send-profiled", config.NoiseOn, profile.UCPTagSendNB, 0, 0, true},
	{"short-pcie-prop", config.NoiseOff, profile.None, units.Nanoseconds(10), 0, true},
	{"noiseon-short-pcie-prop", config.NoiseOn, profile.None, units.Nanoseconds(10), 0, true},
	{"failed-pending-posts", config.NoiseOff, profile.None, 0, 1, true},
	{"noiseon-failed-pending-posts", config.NoiseOn, profile.None, 0, 1, true},
}

// waitRun is what a wait run observed: both workers' ucp and uct stats,
// when each side's wait returned, whether the sender was ever seen parked
// with its pending queue blocked, and the kernel events the run fired.
type waitRun struct {
	tx, rx         Stats
	utx, urx       uct.Stats
	txEnd, rxEnd   units.Time
	parkedBehindSQ bool
	events         uint64
}

// waitStream sends three send queues' worth of 8-byte tagged messages
// from node 0 on one endpoint, each signaled completion retiring a whole
// queue: past the first queue they wait in the pending queue, which each
// completion unblocks by a queue, posted well before the next completion
// can arrive. The sender waits until every send request completed, the
// receiver until every message arrived or the sender's script, done,
// wakes it. Both wait in StartProgressUntil, or with spin set in
// spinFrame. A sampler every microsecond notes whether the sender is
// parked with sends pending.
func waitStream(t *testing.T, c waitCase, spin bool) waitRun {
	t.Helper()
	const n = 3 * uct.SQDepth
	cfg := config.TX2CX4(c.noise, 1, true)
	cfg.SignalPeriod = uct.SQDepth
	if c.prop != 0 {
		cfg.PCIeProp = c.prop
	}
	cfg.Faults.DropRate = c.drop
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	w0 := NewWorker(uct.NewWorker(sys.Nodes[0], cfg), cfg)
	w1 := NewWorker(uct.NewWorker(sys.Nodes[1], cfg), cfg)
	e0, e1 := w0.NewEp(uct.PIOInline), w1.NewEp(uct.PIOInline)
	uct.Connect(e0.UctEp, e1.UctEp)
	for _, nd := range sys.Nodes {
		nd.Prof.Select(c.scope)
	}
	wait := func(w *Worker, done func() bool) simtest.Step {
		if spin {
			return func(tk *sim.Task) { tk.Call(&spinFrame{w: w, done: done}) }
		}
		return func(tk *sim.Task) { w.StartProgressUntil(tk, done) }
	}
	var r waitRun
	reqs := make([]Request, n)
	sent := func() bool {
		for i := range reqs {
			if !reqs[i].Completed() {
				return false
			}
		}
		return true
	}
	finished := false
	arrived := func() bool { return finished || w1.Stats.UnexpectedMsgs >= n }
	simtest.Start(sys.K, "rx", postRecvs(e1, 512), wait(w1, arrived), func(tk *sim.Task) { r.rxEnd = tk.Now() })
	msg := make([]byte, 8)
	tx := []simtest.Step{sleep(units.Microsecond)}
	for i := range reqs {
		tx = append(tx, func(tk *sim.Task) { e0.StartTagSend(tk, &reqs[i], uint64(i), msg, nil) })
	}
	tx = append(tx, wait(w0, sent), func(tk *sim.Task) {
		r.txEnd = tk.Now()
		finished = true
		w1.Uct.Wake()
	})
	txTask := simtest.Start(sys.K, "tx", tx...)
	var sample func()
	sample = func() {
		if txTask.Parked() && w0.pending.Len() > 0 {
			r.parkedBehindSQ = true
		}
		if !txTask.Done() {
			sys.K.After(units.Microsecond, sample)
		}
	}
	sys.K.After(units.Microsecond, sample)
	sys.Run()
	if rep := sys.K.StallReport(); rep != "" {
		t.Fatalf("%s spin=%v: %s", c.name, spin, rep)
	}
	r.tx, r.rx, r.utx, r.urx, r.events = w0.Stats, w1.Stats, w0.Uct.Stats, w1.Uct.Stats, sys.K.Fired()
	return r
}

// TestProgressUntilMatchesSpin: StartProgressUntil polls exactly where the
// spinning loop polls, so both sides' ucp and uct stats and the instants
// their waits end are the spin's. The sender waits with most of its sends
// pending behind a full send queue; at drop rate 1 its QP fails and the
// pending posts fail with it, and the receiver, which nothing reaches, is
// woken by the sender's script. Under NoiseOff and NoiseOn, and over a PCIe
// link whose 10 ns propagation is shorter than a round, the waits park,
// the sender with its pending queue blocked, and fire fewer kernel events;
// with the poll's scope profiled they spin and fire the same events.
func TestProgressUntilMatchesSpin(t *testing.T) {
	for _, c := range waitCases {
		want := waitStream(t, c, true)
		got := waitStream(t, c, false)
		if got.tx != want.tx || got.rx != want.rx || got.utx != want.utx || got.urx != want.urx ||
			got.txEnd != want.txEnd || got.rxEnd != want.rxEnd {
			t.Errorf("%s: StartProgressUntil gave tx %+v %+v done at %v, rx %+v %+v done at %v; spin tx %+v %+v at %v, rx %+v %+v at %v",
				c.name, got.tx, got.utx, got.txEnd, got.rx, got.urx, got.rxEnd,
				want.tx, want.utx, want.txEnd, want.rx, want.urx, want.rxEnd)
		}
		if got.tx.BusyPosts == 0 {
			t.Errorf("%s: no busy post: no send waited in the pending queue", c.name)
		}
		if c.drop == 1 && (got.tx.SendFailures != got.tx.Sends || got.rx.UnexpectedMsgs != 0) {
			t.Errorf("%s: %d of %d sends failed, %d arrived; want every send failed", c.name, got.tx.SendFailures, got.tx.Sends, got.rx.UnexpectedMsgs)
		}
		if c.parks {
			if got.events >= want.events || !got.parkedBehindSQ {
				t.Errorf("%s: %d kernel events (spin %d), parked behind the send queue %v; want fewer, and parked",
					c.name, got.events, want.events, got.parkedBehindSQ)
			}
		} else if got.events != want.events {
			t.Errorf("%s: %d kernel events, spin %d; want the same", c.name, got.events, want.events)
		}
	}
}

// TestNoParkAfterPendingWork: a wait never parks right after a progress
// round that posted or failed a pending send, even one whose poll came
// back empty: the round changed the pending queue the next one tests, so
// the loop spins that round instead. After a round with no pending work
// it parks.
func TestNoParkAfterPendingWork(t *testing.T) {
	for _, pended := range []bool{true, false} {
		sys, w0, _, _, _ := harness(t, 64)
		parked := false
		simtest.Start(sys.K, "wait", func(tk *sim.Task) {
			w0.progF.pended = pended
			parked = w0.Park(tk, nil)
		})
		sys.Run()
		if parked == pended {
			t.Errorf("after a round with pending work %v: parked %v", pended, parked)
		}
		sys.Shutdown()
	}
}
