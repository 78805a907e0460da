package uct

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// tryPut posts data to offset 0 of e's remote buffer once, on the path its
// size selects: a full transmit queue leaves ErrNoResource in LastPost.
func tryPut(e *Ep, data []byte) simtest.Step {
	return func(tk *sim.Task) { e.startPost(tk, mlx.OpRDMAWrite, 0, e.RemoteBuf, data) }
}

func TestPutShortDeliversPayload(t *testing.T) {
	sys, w0, _, e0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	simtest.Start(sys.K, "test",
		tryPut(e0, payload),
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
		func(tk *sim.Task) { e0.TryAm(tk, 7, payload) },
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
			tryPut(e0, []byte{1}),
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
		tryPut(e0, []byte{1}),
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
		tryPut(e0, []byte{1}),
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
			tryPut(e0, []byte{1}),
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

// TestLLPPostEveryPath pins one post's wall time on each descriptor path,
// and the kernel events its run fires: a StartPut on an idle endpoint in
// each mode, inline and just past mlx.InlineMax. A PIO or DoorBell inline
// post up to 32 bytes takes its own path's cost; anything larger, and every
// post on a DoorbellGather endpoint, takes the gather path, whose bcopy
// memcpy adds 30 ps per byte.
func TestLLPPostEveryPath(t *testing.T) {
	gather := func(size int) units.Time { return 112070 + units.Time(size)*30 }
	for _, c := range []struct {
		mode   PostMode
		size   int
		wall   units.Time
		events uint64
	}{
		{PIOInline, 8, 175420, 13},
		{PIOInline, 32, 175420, 13},
		{PIOInline, 33, gather(33), 23},
		{PIOInline, 4096, gather(4096), 23},
		{DoorbellInline, 8, 112970, 18},
		{DoorbellInline, 32, 112970, 18},
		{DoorbellInline, 33, gather(33), 23},
		{DoorbellInline, 4096, gather(4096), 23},
		{DoorbellGather, 8, gather(8), 23},
		{DoorbellGather, 32, gather(32), 23},
		{DoorbellGather, 33, gather(33), 23},
		{DoorbellGather, 4096, gather(4096), 23},
	} {
		sys, _, _, e0, _ := harness(t)
		e0.Mode = c.mode
		e0.RemoteBuf = sys.Nodes[1].Mem.Alloc("dst", MaxBcopy, 64).Base
		data := make([]byte, c.size)
		var t0, wall units.Time
		simtest.Start(sys.K, "post",
			func(tk *sim.Task) { t0 = tk.Now(); e0.StartPut(tk, data) },
			func(tk *sim.Task) { wall = tk.Now() - t0 })
		sys.Run()
		if err := e0.LastPost(); err != nil || wall != c.wall || sys.K.Fired() != c.events {
			t.Errorf("%v %dB: post took %v and the run fired %d events (err %v); want %v and %d",
				c.mode, c.size, wall, sys.K.Fired(), err, c.wall, c.events)
		}
		sys.Shutdown()
	}
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
			tryPut(e0, []byte{1}),
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
			tryPut(e0, payload),
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
				tryPut(e0, []byte{1}),
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
		post := tryPut(e0, []byte{1})
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
	if SQDepth&(SQDepth-1) != 0 || RQDepth&(RQDepth-1) != 0 {
		t.Errorf("queue depths %d and %d must be powers of two", SQDepth, RQDepth)
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

// retryFrame is the busy-post retry spelled out over a no-retry post: post,
// and while the transmit queue is full, progress the worker and post again,
// with no pause in between — StartPut's loop without its parking.
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

// retried wraps a no-retry post in the busy-post retry loop.
func retried(w *Worker, e *Ep, post simtest.Step) simtest.Step {
	return func(tk *sim.Task) { tk.Call(&retryFrame{w: w, e: e, post: post}) }
}

// TestSizedPostMatchesExplicitPaths: StartPut and StartAm post exactly what
// the no-retry post (startPost, TryAm) posts — inline up to mlx.InlineMax
// (32) bytes, bcopy above — with busy posts retried by a test-side loop,
// so a stream long enough to fill the transmit queue gives the same posts,
// busy posts, polls and completion times either way. Under NoiseOff and
// NoiseOn, and over a PCIe link whose 10 ns propagation is shorter than a
// poll period, the sized retry parks on its empty polls and fires fewer
// kernel events; with the post profiled it spins like the explicit loop
// and fires the same events.
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
		{"noiseon", config.NoiseOn, profile.None, 0, true},
		{"busy-post-profiled", config.NoiseOff, profile.BusyPost, 0, false},
		{"noiseon-post-profiled", config.NoiseOn, profile.LLPPost, 0, false},
		{"noiseon-pio-profiled", config.NoiseOn, profile.PIOCopy, 0, true},
		{"short-pcie-prop", config.NoiseOff, profile.None, units.Nanoseconds(10), true},
		{"noiseon-short-pcie-prop", config.NoiseOn, profile.None, units.Nanoseconds(10), true},
	} {
		for _, size := range []int{8, 32, 33, 4096} {
			payload := make([]byte, size)
			short := size <= 32
			for _, am := range []bool{false, true} {
				explicit := func(w *Worker, e *Ep) simtest.Step {
					post := tryPut(e, payload)
					if am {
						post = func(tk *sim.Task) { e.TryAm(tk, 7, payload) }
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

// spinFrame polls its worker forever, as the wait loop spins on a
// predicate that never holds: each poll right after the last, with no
// pause in between.
type spinFrame struct{ w *Worker }

func (f *spinFrame) Step(t *sim.Task) { f.w.StartProgress(t) }

// TestCancelledNoisyParkSettlesItsDraws: a NoiseOn wait parked on a CQ
// that nothing writes, its task cancelled at instant c, leaves its
// worker's stream where the spinning loop, cancelled at c too, leaves it:
// the cancel draws the rounds the spin drew by then, whether c falls
// before the round's CQ read, between the read and the next round's, or
// on a read.
func TestCancelledNoisyParkSettlesItsDraws(t *testing.T) {
	never := func() bool { return false }
	x := uint64(12345)
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c := units.Nanoseconds(200) + units.Time(x>>40)%units.Microseconds(4)
		var next [2]uint64
		var polls [2]uint64
		for v, spin := range []bool{true, false} {
			sys, w0, _, _, _ := harnessWith(t, config.TX2CX4(config.NoiseOn, 1, true))
			wait := func(tk *sim.Task) { w0.StartProgressUntil(tk, never) }
			if spin {
				wait = func(tk *sim.Task) { tk.Call(&spinFrame{w: w0}) }
			}
			task := simtest.Start(sys.K, "wait", wait)
			sys.K.At(c, task.Cancel)
			sys.Run()
			next[v], polls[v] = sys.Nodes[0].Rand.Uint64(), w0.Stats.Progresses
			sys.Shutdown()
		}
		if next[0] != next[1] || polls[1] == 0 {
			t.Fatalf("cancelled at %v: the parked wait's stream draws %x next, the spin's %x (%d and %d polls)", c, next[1], next[0], polls[1], polls[0])
		}
	}
}

// TestSharedStreamKeepsTheSpin: a NoiseOn wait parks only while its
// worker is the one bound to its stream. A second worker on the node draws
// from the node's stream too, so the first one's wait spins; once SetRand
// moves the second worker to a stream of its own, it parks.
func TestSharedStreamKeepsTheSpin(t *testing.T) {
	never := func() bool { return false }
	for _, moved := range []bool{false, true} {
		cfg := config.TX2CX4(config.NoiseOn, 1, true)
		sys, w0, _, _, _ := harnessWith(t, cfg)
		w2 := NewWorker(sys.Nodes[0], cfg)
		if moved {
			w2.SetRand(cfg.Rand("node0.other"))
		}
		task := simtest.Start(sys.K, "wait", func(tk *sim.Task) { w0.StartProgressUntil(tk, never) })
		sys.K.RunUntil(units.Microsecond)
		if task.Parked() != moved || w0.Stats.Progresses == 0 {
			t.Errorf("second worker on its own stream %v: parked %v after %d polls; want parked %v", moved, task.Parked(), w0.Stats.Progresses, moved)
		}
		sys.Shutdown()
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

// TestParkAfterRepost: an empty poll that reposts a receive credit pauses
// after its CQ reads, so a completion can land unwatched while it
// reposts. The loop parks only if no watched slot is valid by then:
//   - a send CQE that lands during the repost is seen by the next poll;
//   - when none lands, the loop parks right after the repost and is woken
//     by the send CQE much later.
//
// Either way the flush polls where the spinning drain loop does, with the
// same stats and end time and fewer kernel events.
func TestParkAfterRepost(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sw := &cfg.SW
	barrier := sw.LLPProgBarrier.Mean()
	period := barrier + sw.LLPProgFailChk.Mean()
	woken := barrier + 3*period // the poll that reads the active message
	// The next poll reads the CQs empty at this instant and then reposts
	// the consumed credit, until reposted.
	emptyRead := woken + sw.LLPProgCQERead.Mean() + sw.LLPProgMisc.Mean() + sw.AmRxHandle.Mean() + barrier
	reposted := emptyRead + sw.LLPProgFailChk.Mean() + sw.PostRecv.Mean()
	for _, c := range []struct {
		name   string
		sendAt units.Time // the send CQE's write
		parks  bool       // the flush is parked a few periods after the repost
	}{
		{"CQE during the repost", emptyRead + sw.LLPProgFailChk.Mean() + sw.PostRecv.Mean()/2, false},
		{"CQE after the repost", reposted + 20*period, true},
	} {
		run := func(flush bool) (Stats, units.Time, uint64, bool) {
			sys, w0, _, e0, _ := harness(t)
			defer sys.Shutdown()
			e0b := w0.NewEp(PIOInline, 1)
			e0b.postOneRecv()
			e0.pi = 1
			sys.K.At(woken-1, writeCQE(e0b, e0b.qp.RecvCQ, mlx.CQERecv))
			sys.K.At(c.sendAt, writeCQE(e0, e0.qp.SendCQ, mlx.CQEReq))
			tail := drain(w0, e0)
			if flush {
				tail = w0.StartFlush
			}
			var end units.Time
			task := simtest.Start(sys.K, "flush", tail, func(tk *sim.Task) { end = tk.Now() })
			parked := false
			sys.K.At(reposted+3*period, func() { parked = task.Parked() })
			sys.Run()
			return w0.Stats, end, sys.K.Fired(), parked
		}
		got, gotEnd, gotEvents, parked := run(true)
		want, wantEnd, wantEvents, _ := run(false)
		if got != want || gotEnd != wantEnd || gotEnd == 0 || got.RecvCQEs != 1 || got.SendCQEs != 1 {
			t.Errorf("%s: flush %+v, done at %v; drain loop %+v, done at %v", c.name, got, gotEnd, want, wantEnd)
		}
		if gotEvents >= wantEvents {
			t.Errorf("%s: flush fired %d kernel events, drain loop %d; want fewer", c.name, gotEvents, wantEvents)
		}
		if parked != c.parks {
			t.Errorf("%s: flush parked %v after the repost, want %v", c.name, parked, c.parks)
		}
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
	if rep := sys.K.StallReport(); !strings.Contains(rep, "parked in *uct.waitFrame") {
		t.Errorf("stall report does not name the parked flush:\n%s", rep)
	}
	task.Cancel()
	if mem.Watches() != 0 || !task.Done() {
		t.Errorf("after Cancel: %d watches armed, done %v", mem.Watches(), task.Done())
	}
	mem.Write(e0.qp.SendCQ.EntryAddr(0), make([]byte, mlx.CQESize)) // nothing may wake
}

// TestSizedPostOversizedErrors: a payload above MaxBcopy fits neither path;
// StartPut, StartAm and TryAm return with the error in LastPost instead of
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
		func(tk *sim.Task) { e0.TryAm(tk, 7, big) },
		check("TryAm"),
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

// TestStagingPagesFollowInFlight: a gather post (here a 64-byte payload,
// too large to ride inline) takes the staging slot freed last, so an endpoint backs as many 4 KiB staging pages as it ever
// had bcopy sends in flight at once, not one per send-queue entry; and a
// CQE frees the slot of every post it retires, an error CQE included.
func TestStagingPagesFollowInFlight(t *testing.T) {
	bcopy := func(t *testing.T, e *Ep) simtest.Step {
		data := make([]byte, 64)
		return simtest.Seq(
			tryPut(e, data),
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

// TestCompletionRingsBackOutstandingOnly: however many completions a run
// writes, a send CQ backs at most SQDepth 64-byte entries and a receive CQ
// at most RQDepth, the completions that can be outstanding in each, plus
// one 4 KiB page: a ring need not start on a page boundary, so its span
// may cover one page more than its size fills. A ring deeper than that
// backs one more page per 64 completions until it is fully backed.
func TestCompletionRingsBackOutstandingOnly(t *testing.T) {
	const n = 4 * RQDepth
	sys, w0, w1, e0, e1 := harness(t)
	defer sys.Shutdown()
	got := 0
	w1.SetAmHandler(7, func(*sim.Task, []byte) { got++ })
	simtest.Start(sys.K, "rx",
		func(tk *sim.Task) { e1.StartPostRecvs(tk, 64) },
		simtest.While(func() bool { return got < n }, w1.StartProgress))
	sent := 0
	simtest.Start(sys.K, "tx",
		func(tk *sim.Task) { tk.Advance(units.Microsecond) }, // let receives post
		simtest.While(func() bool { return sent < n },
			func(tk *sim.Task) { e0.StartAm(tk, 7, make([]byte, 8)) },
			func(*sim.Task) { sent++ }),
		drain(w0, e0))
	sys.Run()
	if w0.Stats.SendCQEs != n || w1.Stats.RecvCQEs != n {
		t.Fatalf("polled %d send and %d receive completions, want %d each", w0.Stats.SendCQEs, w1.Stats.RecvCQEs, n)
	}
	const page = 4096
	if got, max := sys.Nodes[0].Mem.ResidentIn(e0.qp.SendCQ.Region), uint64(SQDepth*mlx.CQESize+page); got > max {
		t.Errorf("after %d send completions the send CQ backs %d B, want at most %d (SQDepth entries)", n, got, max)
	}
	if got, max := sys.Nodes[1].Mem.ResidentIn(e1.qp.RecvCQ.Region), uint64(RQDepth*mlx.CQESize+page); got > max {
		t.Errorf("after %d receive completions the receive CQ backs %d B, want at most %d (RQDepth entries)", n, got, max)
	}
}

// sendRetireLog checks, from a worker's send completion callback, that
// every send CQE retires at least one WQE and exactly the ones after those
// already retired: no WQE retires twice or out of order.
type sendRetireLog struct {
	t       *testing.T
	next    uint16 // the counter the next CQE must retire first
	retired int
	errs    int
}

func (l *sendRetireLog) onSend(_ *sim.Task, ep *Ep, n int, err error) {
	if n < 1 || n > SQDepth || ep.completed-uint16(n) != l.next {
		l.t.Errorf("a CQE retired %d WQEs through counter %d; the next to retire was %d", n, ep.completed-1, l.next)
	}
	l.next = ep.completed
	l.retired += n
	if err != nil {
		l.errs++
	}
}

// TestFullSendQueueRetiresInOrder fills the send queue with signaled posts
// and leaves their completions unpolled, so the send CQ holds SQDepth
// unpolled CQEs, its worst case. Polled, they retire every WQE once, in
// order, over three laps of the ring; and so do they when the local NIC
// crashes in the middle of a lap, with OK, fatal-error and flush CQEs in
// the ring, on either post path (a doorbell post the NIC has not fetched
// is flushed by the driver).
func TestFullSendQueueRetiresInOrder(t *testing.T) {
	for _, mode := range []PostMode{PIOInline, DoorbellGather} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, w0, _, e0, _ := harness(t)
			defer sys.Shutdown()
			e0.Mode = mode
			e0.RemoteBuf = sys.Nodes[1].Mem.Alloc("dst", 64, 64).Base
			log := &sendRetireLog{t: t}
			w0.SetSendCompletion(log.onSend)
			qp := e0.QP()
			data := make([]byte, 8)
			post := func(k int) simtest.Step {
				i := 0
				return simtest.While(func() bool { return i < k },
					tryPut(e0, data),
					func(*sim.Task) {
						if err := e0.LastPost(); err != nil {
							t.Fatalf("post %d: %v", i, err)
						}
						i++
					})
			}
			wait := func(tk *sim.Task) { tk.Advance(units.Millisecond) }
			// poll polls until every post is retired, at most SQDepth+1
			// times, so a lost CQE ends the loop instead of spinning on it.
			poll := func() simtest.Step {
				polls := 0
				return simtest.While(func() bool { return e0.InFlight() > 0 && polls <= SQDepth },
					w0.StartProgress, func(*sim.Task) { polls++ })
			}
			full := func(*sim.Task) {
				if unpolled := qp.CQEsWritten - w0.Stats.SendCQEs; unpolled != SQDepth || e0.FreeSlots() != 0 {
					t.Errorf("%d CQEs unpolled with %d free slots, want a full queue's %d", unpolled, e0.FreeSlots(), SQDepth)
				}
			}
			var steps []simtest.Step
			for i := 0; i < 3; i++ {
				steps = append(steps, post(SQDepth), wait, full, poll())
			}
			// The crash lap: half the queue completes OK, a quarter is in
			// flight when the NIC dies (one fatal CQE, or flushes for what
			// it never fetched), the last quarter is posted to the dead NIC.
			crash := func(*sim.Task) { sys.Nodes[0].NIC.Crash() }
			steps = append(steps, post(SQDepth/2), wait, post(SQDepth/4), crash, post(SQDepth/4), wait, poll(),
				w0.StartProgress,
				func(*sim.Task) {
					if n := w0.LastProgress(); n != 0 {
						t.Errorf("the poll after the last completion retired %d WQEs, want an empty poll", n)
					}
				})
			simtest.Start(sys.K, "tx", steps...)
			sys.Run()
			if posted := 4 * SQDepth; log.retired != posted || e0.InFlight() != 0 {
				t.Errorf("%d posts, %d retired, %d still in flight", posted, log.retired, e0.InFlight())
			}
			if log.errs == 0 || e0.Err == nil {
				t.Error("the crash lap retired nothing with an error CQE")
			}
			if w0.Stats.SendCQEs != qp.CQEsWritten {
				t.Errorf("polled %d send CQEs of the %d written", w0.Stats.SendCQEs, qp.CQEsWritten)
			}
		})
	}
}

// TestRQDepthInboundUnpolled: with RQDepth receives posted, RQDepth
// inbound active messages left unpolled fill the receive CQ. Polled, they
// deliver in order, over two laps of the ring; and while the endpoint
// holds RQDepth credits, posted or consumed but unpolled, one more panics.
func TestRQDepthInboundUnpolled(t *testing.T) {
	sys, w0, w1, e0, e1 := harness(t)
	defer sys.Shutdown()
	var got []uint64
	w1.SetAmHandler(7, func(_ *sim.Task, data []byte) { got = append(got, binary.LittleEndian.Uint64(data)) })
	sent := uint64(0)
	// sendLap sends RQDepth active messages numbered on from the last lap
	// and drains the sender; the receiver does not poll.
	sendLap := func() {
		end := sent + RQDepth
		simtest.Start(sys.K, "tx",
			simtest.While(func() bool { return sent < end },
				func(tk *sim.Task) {
					b := make([]byte, 8)
					binary.LittleEndian.PutUint64(b, sent)
					e0.StartAm(tk, 7, b)
				},
				func(*sim.Task) {
					if err := e0.LastPost(); err != nil {
						t.Fatalf("am %d: %v", sent, err)
					}
					sent++
				}),
			drain(w0, e0))
		sys.Run()
		if unpolled := e1.qp.CQEsWritten - w1.Stats.RecvCQEs; unpolled != RQDepth || e1.recvOrder.Len() != RQDepth {
			t.Fatalf("%d receive CQEs unpolled, %d credits held; want RQDepth (%d) of each", unpolled, e1.recvOrder.Len(), RQDepth)
		}
	}
	// pollLap polls the receiver until every message sent is delivered,
	// at most RQDepth+1 times, so a lost CQE ends the loop.
	pollLap := func() {
		polls := 0
		simtest.Start(sys.K, "rx", simtest.While(func() bool { return uint64(len(got)) < sent && polls <= RQDepth },
			w1.StartProgress, func(*sim.Task) { polls++ }))
		sys.Run()
		for i, v := range got {
			if v != uint64(i) {
				t.Fatalf("delivery %d carried message %d: out of order", i, v)
			}
		}
		if uint64(len(got)) != sent {
			t.Fatalf("%d of %d messages delivered", len(got), sent)
		}
	}

	simtest.Start(sys.K, "rx", func(tk *sim.Task) { e1.StartPostRecvs(tk, RQDepth) })
	sys.Run()
	sendLap()
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "RQDepth") {
				t.Errorf("credit %d panicked with %v, want the RQDepth rule", RQDepth+1, r)
			}
		}()
		e1.postOneRecv()
	}()
	pollLap()
	sendLap()
	pollLap()
	// No CQE of the last lap reads as valid again: the next poll is empty.
	simtest.Start(sys.K, "rx", w1.StartProgress, func(*sim.Task) {
		if n := w1.LastProgress(); n != 0 {
			t.Errorf("the poll after the last delivery retired %d, want an empty poll", n)
		}
	})
	sys.Run()
}
