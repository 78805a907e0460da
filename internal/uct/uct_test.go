package uct

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"breakband/internal/config"
	"breakband/internal/faults"
	"breakband/internal/memsim"
	"breakband/internal/mlx"
	"breakband/internal/node"
	"breakband/internal/profile"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/units"
)

func harness(t *testing.T) (*node.System, *Worker, *Worker, *Ep, *Ep) {
	t.Helper()
	return harnessWith(t, config.TX2CX4(config.NoiseOff, 1, true))
}

// harnessWith is harness over cfg.
func harnessWith(t *testing.T, cfg *config.Config) (*node.System, *Worker, *Worker, *Ep, *Ep) {
	t.Helper()
	sys := node.NewSystem(cfg, 2)
	w0 := NewWorker(sys.Nodes[0], cfg)
	w1 := NewWorker(sys.Nodes[1], cfg)
	e0 := w0.NewEp(PIOInline, 1)
	e1 := w1.NewEp(PIOInline, 1)
	Connect(e0, e1)
	return sys, w0, w1, e0, e1
}

// drain progresses w until every post on e has completed.
func drain(w *Worker, e *Ep) simtest.Step {
	return simtest.While(func() bool { return e.InFlight() > 0 }, w.StartProgress)
}

// putShort posts data to offset 0 of e's remote buffer.
func putShort(e *Ep, data []byte) simtest.Step {
	return func(tk *sim.Task) { e.startPost(tk, mlx.OpRDMAWrite, 0, e.RemoteBuf, data) }
}

func TestPutShortDeliversPayload(t *testing.T) {
	sys, w0, _, e0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	simtest.Start(sys.K, "test",
		putShort(e0, payload),
		func(*sim.Task) {
			if err := e0.LastPost(); err != nil {
				t.Errorf("put: %v", err)
			}
		},
		drain(w0, e0),
	)
	sys.Run()
	if got := sys.Nodes[1].Mem.Read(dst.Base, 8); !bytes.Equal(got, payload) {
		t.Errorf("remote buffer = %v", got)
	}
	if w0.Stats.Posts != 1 || w0.Stats.SendCQEs != 1 {
		t.Errorf("stats = %+v", w0.Stats)
	}
}

func TestAmShortInvokesHandler(t *testing.T) {
	sys, w0, w1, e0, e1 := harness(t)
	defer sys.Shutdown()
	var got []byte
	var gotAt units.Time
	w1.SetAmHandler(7, func(p *sim.Task, data []byte) {
		got = append([]byte(nil), data...)
		gotAt = p.Now()
	})
	payload := []byte{0xA, 0xB, 0xC}
	simtest.Start(sys.K, "rx",
		func(tk *sim.Task) { e1.StartPostRecvs(tk, 8) },
		simtest.While(func() bool { return got == nil }, w1.StartProgress),
	)
	simtest.Start(sys.K, "tx",
		func(tk *sim.Task) { tk.Advance(units.Microsecond) }, // let receives post
		func(tk *sim.Task) { e0.StartAmShort(tk, 7, payload) },
		func(*sim.Task) {
			if err := e0.LastPost(); err != nil {
				t.Errorf("am: %v", err)
			}
		},
		drain(w0, e0),
	)
	sys.Run()
	if !bytes.Equal(got, payload) {
		t.Errorf("handler payload = %v", got)
	}
	if gotAt == 0 {
		t.Error("handler time not captured")
	}
}

func TestBusyPostOnFullQueue(t *testing.T) {
	sys, w0, _, e0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	depth := e0.QP().SQ.Depth
	posted := 0
	simtest.Start(sys.K, "test",
		simtest.While(func() bool { return posted < depth },
			putShort(e0, []byte{1}),
			func(*sim.Task) {
				if err := e0.LastPost(); err != nil {
					t.Fatalf("post %d failed: %v", posted, err)
				}
				posted++
			}),
		func(*sim.Task) {
			if e0.FreeSlots() != 0 {
				t.Errorf("FreeSlots = %d after filling", e0.FreeSlots())
			}
		},
		putShort(e0, []byte{1}),
		func(*sim.Task) {
			if err := e0.LastPost(); err != ErrNoResource {
				t.Errorf("overfull post returned %v, want ErrNoResource", err)
			}
			if w0.Stats.BusyPosts != 1 {
				t.Errorf("busy posts = %d", w0.Stats.BusyPosts)
			}
		},
		// Progress must free a slot and let the post succeed.
		simtest.While(func() bool { return e0.FreeSlots() == 0 }, w0.StartProgress),
		putShort(e0, []byte{1}),
		func(*sim.Task) {
			if err := e0.LastPost(); err != nil {
				t.Errorf("post after progress: %v", err)
			}
		},
		drain(w0, e0),
	)
	sys.Run()
}

func TestBusyPostCost(t *testing.T) {
	sys, _, _, e0, _ := harness(t)
	defer sys.Shutdown()
	cfg := sys.Cfg
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	depth := e0.QP().SQ.Depth
	posted := 0
	var t0 units.Time
	simtest.Start(sys.K, "test",
		simtest.While(func() bool { return posted < depth },
			putShort(e0, []byte{1}),
			func(*sim.Task) { posted++ }),
		func(tk *sim.Task) {
			t0 = tk.Now()
			e0.startPost(tk, mlx.OpRDMAWrite, 0, e0.RemoteBuf, []byte{1})
		},
		func(tk *sim.Task) {
			if d := tk.Now() - t0; d != cfg.SW.BusyPost.Mean() {
				t.Errorf("busy post cost %v, want %v", d, cfg.SW.BusyPost.Mean())
			}
		},
	)
	sys.Run()
}

func TestLLPPostCostMatchesTable(t *testing.T) {
	sys, _, _, e0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	var t0 units.Time
	simtest.Start(sys.K, "test",
		func(tk *sim.Task) {
			t0 = tk.Now()
			e0.startPost(tk, mlx.OpRDMAWrite, 0, e0.RemoteBuf, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		},
		func(tk *sim.Task) {
			got := (tk.Now() - t0).Ns()
			if math.Abs(got-config.TabLLPPost) > 1e-9 {
				t.Errorf("LLP_post wall time = %v, want %v", got, config.TabLLPPost)
			}
		},
	)
	sys.Run()
}

func TestUnsignaledPeriod(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	w0 := NewWorker(sys.Nodes[0], cfg)
	w1 := NewWorker(sys.Nodes[1], cfg)
	e0 := w0.NewEp(PIOInline, 4) // every 4th signaled
	e1 := w1.NewEp(PIOInline, 4)
	Connect(e0, e1)
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	var freed int
	w0.SetSendCompletion(func(p *sim.Task, _ *Ep, n int, _ error) { freed += n })
	posted := 0
	simtest.Start(sys.K, "test",
		simtest.While(func() bool { return posted < 8 },
			putShort(e0, []byte{1}),
			func(*sim.Task) {
				if err := e0.LastPost(); err != nil {
					t.Fatalf("post %d: %v", posted, err)
				}
				posted++
			}),
		drain(w0, e0),
	)
	sys.Run()
	if w0.Stats.SendCQEs != 2 {
		t.Errorf("CQEs = %d, want 2 (8 posts, c=4)", w0.Stats.SendCQEs)
	}
	if freed != 8 {
		t.Errorf("freed = %d, want 8", freed)
	}
	if w0.Stats.SendsFreed != 8 {
		t.Errorf("SendsFreed = %d", w0.Stats.SendsFreed)
	}
}

func TestOversizedPostRejected(t *testing.T) {
	sys, _, _, e0, _ := harness(t)
	defer sys.Shutdown()
	simtest.Start(sys.K, "test",
		putShort(e0, make([]byte, 33)),
		func(*sim.Task) {
			if err := e0.LastPost(); err == nil || err == ErrNoResource {
				t.Errorf("oversized post returned %v", err)
			}
		},
	)
	sys.Run()
}

func TestDoorbellModesDeliver(t *testing.T) {
	for _, mode := range []PostMode{DoorbellInline, DoorbellGather} {
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		sys := node.NewSystem(cfg, 2)
		w0 := NewWorker(sys.Nodes[0], cfg)
		w1 := NewWorker(sys.Nodes[1], cfg)
		e0 := w0.NewEp(mode, 1)
		e1 := w1.NewEp(mode, 1)
		Connect(e0, e1)
		dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
		e0.RemoteBuf = dst.Base
		payload := []byte{5, 6, 7, 8}
		simtest.Start(sys.K, "test",
			putShort(e0, payload),
			func(*sim.Task) {
				if err := e0.LastPost(); err != nil {
					t.Errorf("%v post: %v", mode, err)
				}
			},
			drain(w0, e0),
		)
		sys.Run()
		if got := sys.Nodes[1].Mem.Read(dst.Base, 4); !bytes.Equal(got, payload) {
			t.Errorf("%v: remote buffer = %v", mode, got)
		}
		sys.Shutdown()
	}
}

func TestStageProfiling(t *testing.T) {
	for _, st := range []profile.Scope{profile.MDSetup, profile.BarrierMD, profile.BarrierDBC, profile.PIOCopy, profile.LLPPost} {
		sys, w0, _, e0, _ := harness(t)
		dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
		e0.RemoteBuf = dst.Base
		sys.Nodes[0].Prof.Select(st)
		posted := 0
		simtest.Start(sys.K, "test",
			func(tk *sim.Task) { sys.Nodes[0].Prof.Calibrate(tk) },
			simtest.While(func() bool { return posted < 50 },
				putShort(e0, []byte{1}),
				drain(w0, e0),
				func(*sim.Task) { posted++ }),
		)
		sys.Run()
		want := map[profile.Scope]float64{
			profile.MDSetup:    config.TabMDSetup,
			profile.BarrierMD:  config.TabBarrierMD,
			profile.BarrierDBC: config.TabBarrierDBC,
			profile.PIOCopy:    config.TabPIOCopy,
			profile.LLPPost:    config.TabLLPPost,
		}[st]
		got := sys.Nodes[0].Prof.MeanNs(st)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("stage %v measured %v, want %v", st, got, want)
		}
		sys.Shutdown()
	}
}

func TestDeterminism(t *testing.T) {
	run := func() units.Time {
		sys, w0, _, e0, _ := harness(t)
		defer sys.Shutdown()
		dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
		e0.RemoteBuf = dst.Base
		var end units.Time
		posted := 0
		post := putShort(e0, []byte{1})
		simtest.Start(sys.K, "test",
			simtest.While(func() bool { return posted < 200 },
				post,
				simtest.While(func() bool { return e0.LastPost() == ErrNoResource }, w0.StartProgress, post),
				func(*sim.Task) { posted++ }),
			drain(w0, e0),
			func(tk *sim.Task) { end = tk.Now() },
		)
		sys.Run()
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical runs ended at %v and %v", a, b)
	}
}

// TestEpBytesMatchesAllocation: EpBytes is what each NewEp takes from its
// node's memory, so a node's size bounds its endpoints exactly.
func TestEpBytesMatchesAllocation(t *testing.T) {
	sys, w0, _, _, _ := harness(t)
	defer sys.Shutdown()
	mem := sys.Nodes[0].Mem
	end := func() uint64 { regs := mem.Regions(); return regs[len(regs)-1].End() }
	before := end()
	for i := 0; i < 3; i++ {
		w0.NewEp(PIOInline, 1)
	}
	if got, want := end()-before, 3*EpBytes(); got != want {
		t.Errorf("3 endpoints took %d bytes, EpBytes says %d", got, want)
	}
}

// TestSQDepthIsPowerOfTwo: the QP rings (mlx.Ring) index their slots by
// masking a producer counter, and an endpoint numbers its staging slots,
// one per send-queue entry, plus one in a uint8.
func TestSQDepthIsPowerOfTwo(t *testing.T) {
	if SQDepth&(SQDepth-1) != 0 || CQDepth&(CQDepth-1) != 0 {
		t.Errorf("queue depths %d and %d must be powers of two", SQDepth, CQDepth)
	}
	if SQDepth >= 256 {
		t.Errorf("send-queue depth %d: staging slot numbers overflow a uint8", SQDepth)
	}
}

func TestModeString(t *testing.T) {
	if PIOInline.String() != "pio-inline" || DoorbellInline.String() != "doorbell-inline" ||
		DoorbellGather.String() != "doorbell-gather" {
		t.Error("mode strings")
	}
}

// stream is one postStream run: n messages from node 0 posted with post at
// the given noise level and profiled scope, over a PCIe link with
// propagation prop when it is set; with am set, node 1 posts receives and
// polls until every message arrived. The sender drains its tail with the
// drain loop, or with StartFlush when flush is set.
type stream struct {
	noise config.NoiseLevel
	scope profile.Scope
	prop  units.Time
	n     int
	am    bool
	post  func(w *Worker, e *Ep) simtest.Step
	flush bool
}

// streamRun is what a stream run observed: the sender's stats, the time
// its last completion was polled, how many posts left an error in
// LastPost, and the kernel events the whole run fired.
type streamRun struct {
	stats  Stats
	end    units.Time
	failed int
	events uint64
}

func postStream(t *testing.T, s stream) streamRun {
	t.Helper()
	cfg := config.TX2CX4(s.noise, 1, true)
	if s.prop != 0 {
		cfg.PCIeProp = s.prop
	}
	sys, w0, w1, e0, e1 := harnessWith(t, cfg)
	defer sys.Shutdown()
	sys.Nodes[0].Prof.Select(s.scope)
	dst := sys.Nodes[1].Mem.Alloc("dst", MaxBcopy, 64)
	e0.RemoteBuf = dst.Base
	if s.am {
		got := 0
		w1.SetAmHandler(7, func(*sim.Task, []byte) { got++ })
		simtest.Start(sys.K, "rx",
			func(tk *sim.Task) { e1.StartPostRecvs(tk, 64) },
			simtest.While(func() bool { return got < s.n }, w1.StartProgress),
		)
	}
	tail := drain(w0, e0)
	if s.flush {
		tail = w0.StartFlush
	}
	var r streamRun
	posted := 0
	simtest.Start(sys.K, "tx",
		func(tk *sim.Task) { tk.Advance(units.Microsecond) }, // let receives post
		simtest.While(func() bool { return posted < s.n },
			s.post(w0, e0),
			func(*sim.Task) {
				if e0.LastPost() != nil {
					r.failed++
				}
				posted++
			}),
		tail,
		func(tk *sim.Task) { r.end = tk.Now() },
	)
	sys.Run()
	r.stats, r.events = w0.Stats, sys.K.Fired()
	return r
}

// retryFrame is the busy-post retry spelled out over an explicit-path post:
// post, and while the transmit queue is full, progress the worker and post
// again, with no pause in between — StartPut's loop without its parking.
type retryFrame struct {
	w    *Worker
	e    *Ep
	post simtest.Step
	pc   int
}

func (f *retryFrame) Step(t *sim.Task) {
	switch f.pc {
	case 0:
		f.pc = 1
		f.post(t)
	case 1:
		if f.e.LastPost() != ErrNoResource {
			t.Return()
			return
		}
		f.pc = 0
		f.w.StartProgress(t)
	}
}

// retried wraps an explicit-path post in the busy-post retry loop.
func retried(w *Worker, e *Ep, post simtest.Step) simtest.Step {
	return func(tk *sim.Task) { tk.Call(&retryFrame{w: w, e: e, post: post}) }
}

// TestSizedPostMatchesExplicitPaths: StartPut and StartAm post exactly
// what the explicit path their size selects posts — short up to
// mlx.InlineMax (32) bytes, bcopy above — with busy posts retried, so a
// stream long enough to fill the transmit queue gives the same posts, busy
// posts, polls and completion times either way. Under NoiseOff the sized
// retry parks on its empty polls and fires fewer kernel events; under
// NoiseOn, with the busy post profiled, or over a PCIe link whose 10 ns
// propagation is shorter than a poll period (the tie rule), it spins like
// the explicit loop and fires the same events.
func TestSizedPostMatchesExplicitPaths(t *testing.T) {
	const n = 300 // > SQDepth: the queue fills and busy posts retry
	for _, v := range []struct {
		name  string
		noise config.NoiseLevel
		scope profile.Scope
		prop  units.Time
		parks bool
	}{
		{"noiseoff", config.NoiseOff, profile.None, 0, true},
		{"noiseon", config.NoiseOn, profile.None, 0, false},
		{"busy-post-profiled", config.NoiseOff, profile.BusyPost, 0, false},
		{"short-pcie-prop", config.NoiseOff, profile.None, units.Nanoseconds(10), false},
	} {
		for _, size := range []int{8, 32, 33, 4096} {
			payload := make([]byte, size)
			short := size <= 32
			for _, am := range []bool{false, true} {
				explicit := func(w *Worker, e *Ep) simtest.Step {
					var post simtest.Step
					switch {
					case am && short:
						post = func(tk *sim.Task) { e.StartAmShort(tk, 7, payload) }
					case am:
						post = func(tk *sim.Task) { e.StartAmBcopy(tk, 7, payload) }
					case short:
						post = func(tk *sim.Task) { e.startPost(tk, mlx.OpRDMAWrite, 0, e.RemoteBuf, payload) }
					default:
						post = func(tk *sim.Task) { e.startGather(tk, mlx.OpRDMAWrite, 0, e.RemoteBuf, payload) }
					}
					return retried(w, e, post)
				}
				sized := func(_ *Worker, e *Ep) simtest.Step {
					if am {
						return func(tk *sim.Task) { e.StartAm(tk, 7, payload) }
					}
					return func(tk *sim.Task) { e.StartPut(tk, payload) }
				}
				want := postStream(t, stream{noise: v.noise, scope: v.scope, prop: v.prop, n: n, am: am, post: explicit})
				got := postStream(t, stream{noise: v.noise, scope: v.scope, prop: v.prop, n: n, am: am, post: sized})
				ws, gs := want.stats, got.stats
				if gs.Posts != ws.Posts || gs.BusyPosts != ws.BusyPosts || gs.Progresses != ws.Progresses ||
					gs.EmptyPolls != ws.EmptyPolls || got.end != want.end {
					t.Errorf("%s %dB am=%v: sized post gave %d posts, %d busy, %d polls (%d empty), done at %v; explicit path %d, %d, %d (%d), %v",
						v.name, size, am, gs.Posts, gs.BusyPosts, gs.Progresses, gs.EmptyPolls, got.end,
						ws.Posts, ws.BusyPosts, ws.Progresses, ws.EmptyPolls, want.end)
				}
				if gs.Posts != n || gs.BusyPosts == 0 {
					t.Errorf("%s %dB am=%v: %d posts, %d busy; want %d posts after busy retries", v.name, size, am, gs.Posts, gs.BusyPosts, n)
				}
				if !short && gs.EmptyPolls == 0 {
					t.Errorf("%s %dB am=%v: no empty poll; the bcopy stream should outrun its completions", v.name, size, am)
				}
				if got.failed != 0 || want.failed != 0 {
					t.Errorf("%s %dB am=%v: %d sized and %d explicit posts left an error in LastPost", v.name, size, am, got.failed, want.failed)
				}
				// Short posts complete faster than the queue refills: with no
				// empty poll there is nothing to park on.
				if v.parks && gs.EmptyPolls > 0 {
					if got.events >= want.events {
						t.Errorf("%s %dB am=%v: sized post fired %d kernel events, explicit %d; want fewer", v.name, size, am, got.events, want.events)
					}
				} else if got.events != want.events {
					t.Errorf("%s %dB am=%v: sized post fired %d kernel events, explicit %d; want the same", v.name, size, am, got.events, want.events)
				}
			}
		}
	}
}

// TestFlushMatchesDrain: StartFlush polls exactly where the drain loop
// polls, so the sender's stats and the time its last completion is polled
// are the drain loop's; under NoiseOff it parks on its empty polls and
// fires fewer kernel events.
func TestFlushMatchesDrain(t *testing.T) {
	for _, noise := range []config.NoiseLevel{config.NoiseOff, config.NoiseOn} {
		for _, size := range []int{64, 4096} {
			payload := make([]byte, size)
			post := func(_ *Worker, e *Ep) simtest.Step {
				return func(tk *sim.Task) { e.StartPut(tk, payload) }
			}
			want := postStream(t, stream{noise: noise, n: 200, post: post})
			got := postStream(t, stream{noise: noise, n: 200, post: post, flush: true})
			if got.stats != want.stats || got.end != want.end {
				t.Errorf("noise %v %dB: flush gave %+v done at %v; drain loop %+v done at %v",
					noise, size, got.stats, got.end, want.stats, want.end)
			}
			if want.stats.EmptyPolls == 0 {
				t.Errorf("noise %v %dB: the drain saw no empty poll; the case exercises nothing", noise, size)
			}
			if noise == config.NoiseOff && got.events >= want.events {
				t.Errorf("%dB: flush fired %d kernel events, drain loop %d; want fewer", size, got.events, want.events)
			}
		}
	}
}

// writeCQE returns an event that writes a valid completion into slot 0 of
// ring, the first one the endpoint will poll: a send completion retiring
// WQE 0, or an 8-byte active message with id 7.
func writeCQE(e *Ep, ring mlx.Ring, op mlx.CQEOp) func() {
	return func() {
		cqe := mlx.CQE{Op: op, QPN: e.qp.QPN, Gen: ring.Gen(0)}
		if op == mlx.CQERecv {
			cqe.AmID, cqe.ByteCnt, cqe.Payload = 7, 8, make([]byte, 8)
		}
		enc, err := cqe.Encode()
		if err != nil {
			panic(err)
		}
		e.w.Node.Mem.Write(ring.EntryAddr(0), enc[:])
	}
}

// waitCQE runs one send that the NIC never completes (e0's counter moves
// without a doorbell) and completes it with a CQE written at tw. With
// flush set the sender waits in StartFlush, otherwise in the drain loop.
// It reports the sender's stats, the time the flush returned and the
// kernel events the run fired.
func waitCQE(t *testing.T, tw units.Time, flush bool) (Stats, units.Time, uint64) {
	t.Helper()
	sys, w0, _, e0, _ := harness(t)
	defer sys.Shutdown()
	e0.pi = 1
	sys.K.At(tw, writeCQE(e0, e0.qp.SendCQ, mlx.CQEReq))
	tail := drain(w0, e0)
	if flush {
		tail = w0.StartFlush
	}
	var end units.Time
	simtest.Start(sys.K, "flush", tail, func(tk *sim.Task) { end = tk.Now() })
	sys.Run()
	return w0.Stats, end, sys.K.Fired()
}

// TestParkedCQETiming: a CQE that commits exactly on a skipped poll
// instant is seen by that poll, and one that commits 1 ps later by the
// next, in the closed form and in the spinning drain loop alike. The flush
// starts at 0 and polls first at the barrier's end, r1; its skipped polls
// read at r1 + j*P with P = barrier + failed check.
func TestParkedCQETiming(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sw := &cfg.SW
	barrier := sw.LLPProgBarrier.Mean()
	period := barrier + sw.LLPProgFailChk.Mean()
	done := sw.LLPProgCQERead.Mean() + sw.LLPProgMisc.Mean()
	const k = 3
	pollAt := func(j int) units.Time { return barrier + units.Time(j)*period }
	for _, c := range []struct {
		name string
		tw   units.Time
		j    int // the poll that sees the CQE, counted from the first skipped
	}{
		{"on a poll instant", pollAt(k), k},
		{"1ps after a poll instant", pollAt(k) + 1, k + 1},
	} {
		got, gotEnd, gotEvents := waitCQE(t, c.tw, true)
		want := Stats{Progresses: uint64(1 + c.j), EmptyPolls: uint64(c.j), SendCQEs: 1, SendsFreed: 1}
		if got != want || gotEnd != pollAt(c.j)+done {
			t.Errorf("CQE %s: flush ended at %v with %+v; want %v and %+v", c.name, gotEnd, got, pollAt(c.j)+done, want)
		}
		spin, spinEnd, spinEvents := waitCQE(t, c.tw, false)
		if spin != got || spinEnd != gotEnd {
			t.Errorf("CQE %s: drain loop ended at %v with %+v; flush at %v with %+v", c.name, spinEnd, spin, gotEnd, got)
		}
		if gotEvents >= spinEvents {
			t.Errorf("CQE %s: flush fired %d kernel events, drain loop %d; want it parked", c.name, gotEvents, spinEvents)
		}
	}
}

// TestParkedWakeBySecondEndpoint: a worker with two endpoints, waiting in
// a flush on the first's send, is woken by an active message landing in
// the second's receive CQ. It handles the message at the first skipped
// poll after the write, then parks again (after reposting the credit) until
// the send completes — all as the spinning drain loop does.
func TestParkedWakeBySecondEndpoint(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sw := &cfg.SW
	barrier := sw.LLPProgBarrier.Mean()
	period := barrier + sw.LLPProgFailChk.Mean()
	tw := barrier + 5*period - 7 // inside the 5th skipped period
	run := func(flush bool) (Stats, units.Time, units.Time, int) {
		sys, w0, _, e0, _ := harness(t)
		defer sys.Shutdown()
		e0b := w0.NewEp(PIOInline, 1)
		e0b.postOneRecv()
		e0.pi = 1
		var handled units.Time
		w0.SetAmHandler(7, func(tk *sim.Task, _ []byte) { handled = tk.Now() })
		mem := sys.Nodes[0].Mem
		watches := 0
		sys.K.At(tw, func() {
			watches = mem.Watches()
			writeCQE(e0b, e0b.qp.RecvCQ, mlx.CQERecv)()
		})
		sys.K.At(tw+20*period, writeCQE(e0, e0.qp.SendCQ, mlx.CQEReq))
		tail := drain(w0, e0)
		if flush {
			tail = w0.StartFlush
		}
		var end units.Time
		simtest.Start(sys.K, "flush", tail, func(tk *sim.Task) { end = tk.Now() })
		sys.Run()
		if mem.Watches() != 0 {
			t.Errorf("flush=%v: %d watches still armed after the run", flush, mem.Watches())
		}
		return w0.Stats, handled, end, watches
	}
	got, gotAt, gotEnd, watches := run(true)
	if watches != 4 {
		t.Errorf("parked two-endpoint worker armed %d watches, want 4 (a send and a receive slot each)", watches)
	}
	wantAt := barrier + 5*period + sw.LLPProgCQERead.Mean() + sw.LLPProgMisc.Mean() + sw.AmRxHandle.Mean()
	if gotAt != wantAt || got.RecvCQEs != 1 || got.SendCQEs != 1 {
		t.Errorf("handler ran at %v with %+v; want %v, one receive and one send CQE", gotAt, got, wantAt)
	}
	spin, spinAt, spinEnd, _ := run(false)
	if spin != got || spinAt != gotAt || spinEnd != gotEnd {
		t.Errorf("drain loop: %+v, handler at %v, done at %v; flush: %+v, %v, %v", spin, spinAt, spinEnd, got, gotAt, gotEnd)
	}
}

// TestNoParkAfterRepost: an empty poll that reposts a receive credit pauses
// after its CQ reads, so the loop must not park on it: a send CQE landing
// during the repost is seen by the next poll, as in the spinning drain.
func TestNoParkAfterRepost(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sw := &cfg.SW
	barrier := sw.LLPProgBarrier.Mean()
	period := barrier + sw.LLPProgFailChk.Mean()
	woken := barrier + 3*period // the poll that reads the active message
	// The next poll reads the CQs empty at this instant and then reposts
	// the consumed credit.
	emptyRead := woken + sw.LLPProgCQERead.Mean() + sw.LLPProgMisc.Mean() + sw.AmRxHandle.Mean() + barrier
	run := func(flush bool) (Stats, units.Time) {
		sys, w0, _, e0, _ := harness(t)
		defer sys.Shutdown()
		e0b := w0.NewEp(PIOInline, 1)
		e0b.postOneRecv()
		e0.pi = 1
		sys.K.At(woken-1, writeCQE(e0b, e0b.qp.RecvCQ, mlx.CQERecv))
		sys.K.At(emptyRead+sw.LLPProgFailChk.Mean()+sw.PostRecv.Mean()/2, writeCQE(e0, e0.qp.SendCQ, mlx.CQEReq))
		tail := drain(w0, e0)
		if flush {
			tail = w0.StartFlush
		}
		var end units.Time
		simtest.Start(sys.K, "flush", tail, func(tk *sim.Task) { end = tk.Now() })
		sys.Run()
		return w0.Stats, end
	}
	got, gotEnd := run(true)
	want, wantEnd := run(false)
	if got != want || gotEnd != wantEnd || gotEnd == 0 {
		t.Errorf("flush: %+v, done at %v; drain loop: %+v, done at %v", got, gotEnd, want, wantEnd)
	}
}

// TestCancelParkedFlush: a flush parked on a completion that never comes
// lets the queue drain; cancelling its task disarms every watch.
func TestCancelParkedFlush(t *testing.T) {
	sys, w0, _, e0, _ := harness(t)
	defer sys.Shutdown()
	e0.pi = 1
	task := simtest.Start(sys.K, "flush", w0.StartFlush)
	sys.Run()
	mem := sys.Nodes[0].Mem
	if !task.Parked() || mem.Watches() != 2 {
		t.Fatalf("after the drain: parked %v with %d watches; want parked on 2", task.Parked(), mem.Watches())
	}
	if rep := sys.K.StallReport(); !strings.Contains(rep, "parked in *uct.flushFrame") {
		t.Errorf("stall report does not name the parked flush:\n%s", rep)
	}
	task.Cancel()
	if mem.Watches() != 0 || !task.Done() {
		t.Errorf("after Cancel: %d watches armed, done %v", mem.Watches(), task.Done())
	}
	mem.Write(e0.qp.SendCQ.EntryAddr(0), make([]byte, mlx.CQESize)) // nothing may wake
}

// TestSizedPostOversizedErrors: a payload above MaxBcopy fits neither path;
// StartPut and StartAm return with the error in LastPost instead of
// retrying or panicking.
func TestSizedPostOversizedErrors(t *testing.T) {
	sys, w0, _, e0, _ := harness(t)
	defer sys.Shutdown()
	big := make([]byte, MaxBcopy+1)
	check := func(op string) simtest.Step {
		return func(*sim.Task) {
			if err := e0.LastPost(); err == nil || err == ErrNoResource {
				t.Errorf("%s of %d bytes returned %v, want a size error", op, len(big), err)
			}
		}
	}
	simtest.Start(sys.K, "test",
		func(tk *sim.Task) { e0.StartPut(tk, big) },
		check("StartPut"),
		func(tk *sim.Task) { e0.StartAm(tk, 7, big) },
		check("StartAm"),
	)
	sys.Run()
	if w0.Stats.Posts != 0 || w0.Stats.BusyPosts != 0 {
		t.Errorf("oversized posts reached the queue: %+v", w0.Stats)
	}
}

// TestRecvOrderReusesArray cycles an endpoint's receive-order queue the way
// a receiver does: a pool of posted receives, each consumed by an inbound
// send and reposted behind the others. In steady state the queue allocates
// nothing: it reuses its backing array instead of reslicing its head away.
func TestRecvOrderReusesArray(t *testing.T) {
	sys, _, _, _, e1 := harness(t)
	defer sys.Shutdown()
	for i := 0; i < recvPoolSlots; i++ {
		e1.recvOrder.Push(e1.recvPool + uint64(i)*MaxBcopy)
	}
	posted := make([]uint64, e1.recvOrder.Len())
	for i := range posted {
		posted[i] = e1.recvOrder.At(i)
	}
	// Four laps of the pool: a queue that reslices reallocates at least
	// once a lap.
	laps := func() {
		for i := 0; i < 4*len(posted); i++ {
			e1.recvOrder.Push(e1.recvOrder.Pop())
		}
	}
	laps()
	if allocs := testing.AllocsPerRun(50, laps); allocs != 0 {
		t.Errorf("four laps of the receive pool allocate %.2f times, want 0", allocs)
	}
	for i, want := range posted {
		if got := e1.recvOrder.At(i); got != want {
			t.Fatalf("receive %d is %#x, want %#x: FIFO order lost", i, got, want)
		}
	}
}

// TestStagingPagesFollowInFlight: a gather post takes the staging slot
// freed last, so an endpoint backs as many 4 KiB staging pages as it ever
// had bcopy sends in flight at once, not one per send-queue entry; and a
// CQE frees the slot of every post it retires, an error CQE included.
func TestStagingPagesFollowInFlight(t *testing.T) {
	bcopy := func(t *testing.T, e *Ep) simtest.Step {
		data := make([]byte, 64)
		return simtest.Seq(
			func(tk *sim.Task) { e.startGather(tk, mlx.OpRDMAWrite, 0, e.RemoteBuf, data) },
			func(*sim.Task) {
				if err := e.LastPost(); err != nil {
					t.Fatalf("bcopy post: %v", err)
				}
			})
	}
	// stagingPages counts the 4 KiB pages of e's staging region the run
	// backed; each 64-byte payload touches one page of its slot.
	stagingPages := func(e *Ep) uint64 {
		region := memsim.Region{Base: e.staging, Size: MaxBcopy * SQDepth}
		return e.w.Node.Mem.ResidentIn(region) / MaxBcopy
	}
	setup := func(t *testing.T, crashes ...faults.Crash) (*node.System, *Worker, *Ep) {
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		cfg.Faults.Crashes = crashes
		sys, w0, _, e0, _ := harnessWith(t, cfg)
		e0.RemoteBuf = sys.Nodes[1].Mem.Alloc("dst", 64, 64).Base
		return sys, w0, e0
	}

	t.Run("one in flight", func(t *testing.T) {
		sys, w0, e0 := setup(t)
		defer sys.Shutdown()
		sent := 0
		simtest.Start(sys.K, "tx", simtest.While(func() bool { return sent < 500 },
			bcopy(t, e0), drain(w0, e0), func(*sim.Task) { sent++ }))
		sys.Run()
		if got := stagingPages(e0); got != 1 {
			t.Errorf("500 bcopy sends, one in flight at a time, backed %d staging pages, want 1", got)
		}
	})

	t.Run("full queue", func(t *testing.T) {
		sys, w0, e0 := setup(t)
		defer sys.Shutdown()
		simtest.Start(sys.K, "tx",
			simtest.While(func() bool { return e0.FreeSlots() > 0 }, bcopy(t, e0)),
			drain(w0, e0),
			// A second lap of the queue reuses the same slots.
			simtest.While(func() bool { return e0.FreeSlots() > 0 }, bcopy(t, e0)),
			drain(w0, e0))
		sys.Run()
		if got := stagingPages(e0); got != SQDepth {
			t.Errorf("a send queue filled to %d backed %d staging pages, want %d", SQDepth, got, SQDepth)
		}
		if e0.nFree != SQDepth || e0.nStaged != SQDepth {
			t.Errorf("drained: %d of %d staging slots free, want all %d", e0.nFree, e0.nStaged, SQDepth)
		}
	})

	for _, c := range []struct {
		name  string
		crash int // the node whose NIC dies
	}{
		{"peer crash, retry exhaustion", 1},
		{"local crash, fatal error CQE", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			const inFlight = 8
			// A crash arms the peers' ACK timeouts, through which a
			// surviving sender fails its QP.
			sys, w0, e0 := setup(t, faults.Crash{Node: c.crash, At: units.Nanoseconds(300)})
			defer sys.Shutdown()
			posted := 0
			simtest.Start(sys.K, "tx",
				simtest.While(func() bool { return posted < inFlight },
					bcopy(t, e0), func(*sim.Task) { posted++ }),
				w0.StartFlush)
			sys.Run()
			if e0.Err == nil || e0.InFlight() != 0 {
				t.Fatalf("after the crash: Err %v, %d sends in flight; want an error CQE that retired all", e0.Err, e0.InFlight())
			}
			if e0.nStaged != inFlight || e0.nFree != inFlight {
				t.Errorf("%d of %d staging slots free after the error flush, want all %d", e0.nFree, e0.nStaged, inFlight)
			}
			// The next gather post takes the slot freed last: the last
			// post's, since one CQE frees its posts in order.
			if got, want := e0.takeStaging(), e0.staging+(inFlight-1)*MaxBcopy; got != want || e0.nStaged != inFlight {
				t.Errorf("next post staged at %#x (%d slots used), want the freed slot %#x", got, e0.nStaged, want)
			}
		})
	}
}
