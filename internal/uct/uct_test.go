package uct

import (
	"bytes"
	"math"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/units"
)

func harness(t *testing.T) (*node.System, *Worker, *Worker, *Ep, *Ep) {
	t.Helper()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
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
	return func(tk *sim.Task) { e.StartPutShort(tk, 0, data) }
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
			e0.StartPutShort(tk, 0, []byte{1})
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
			e0.StartPutShort(tk, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
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
	for _, st := range []Stage{StMDSetup, StBarrierMD, StBarrierDBC, StPIOCopy, StLLPPost} {
		sys, w0, _, e0, _ := harness(t)
		dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
		e0.RemoteBuf = dst.Base
		w0.ProfStage = st
		posted := 0
		simtest.Start(sys.K, "test",
			func(tk *sim.Task) { sys.Nodes[0].Prof.Calibrate(tk, 100) },
			simtest.While(func() bool { return posted < 50 },
				putShort(e0, []byte{1}),
				drain(w0, e0),
				func(*sim.Task) { posted++ }),
		)
		sys.Run()
		want := map[Stage]float64{
			StMDSetup:    config.TabMDSetup,
			StBarrierMD:  config.TabBarrierMD,
			StBarrierDBC: config.TabBarrierDBC,
			StPIOCopy:    config.TabPIOCopy,
			StLLPPost:    config.TabLLPPost,
		}[st]
		got := sys.Nodes[0].Prof.MeanNs(st.Name())
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

func TestModeString(t *testing.T) {
	if PIOInline.String() != "pio-inline" || DoorbellInline.String() != "doorbell-inline" ||
		DoorbellGather.String() != "doorbell-gather" {
		t.Error("mode strings")
	}
}

// postStream sends n messages from node 0 with post and drains the
// completions; with am set, node 1 posts receives and polls until every
// message arrived. It reports the sender's stats, the time its last
// completion was polled, and how many posts left an error in LastPost.
func postStream(t *testing.T, n int, am bool, post func(w *Worker, e *Ep) simtest.Step) (Stats, units.Time, int) {
	t.Helper()
	sys, w0, w1, e0, e1 := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", MaxBcopy, 64)
	e0.RemoteBuf = dst.Base
	if am {
		got := 0
		w1.SetAmHandler(7, func(*sim.Task, []byte) { got++ })
		simtest.Start(sys.K, "rx",
			func(tk *sim.Task) { e1.StartPostRecvs(tk, 64) },
			simtest.While(func() bool { return got < n }, w1.StartProgress),
		)
	}
	var end units.Time
	posted, failed := 0, 0
	simtest.Start(sys.K, "tx",
		func(tk *sim.Task) { tk.Advance(units.Microsecond) }, // let receives post
		simtest.While(func() bool { return posted < n },
			post(w0, e0),
			func(*sim.Task) {
				if e0.LastPost() != nil {
					failed++
				}
				posted++
			}),
		drain(w0, e0),
		func(tk *sim.Task) { end = tk.Now() },
	)
	sys.Run()
	return w0.Stats, end, failed
}

// retried wraps an explicit-path post in a busy-post retry loop: progress
// the worker and post again while the transmit queue is full.
func retried(w *Worker, e *Ep, post simtest.Step) simtest.Step {
	return simtest.Seq(post,
		simtest.While(func() bool { return e.LastPost() == ErrNoResource }, w.StartProgress, post))
}

// TestSizedPostMatchesExplicitPaths: StartPut and StartAm post exactly
// what the explicit path their size selects posts — short up to
// mlx.InlineMax (32) bytes, bcopy above — with busy posts retried, so a
// stream long enough to fill the transmit queue gives the same posts, busy
// posts and completion times either way.
func TestSizedPostMatchesExplicitPaths(t *testing.T) {
	const n = 300 // > SQDepth: the queue fills and busy posts retry
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
					post = func(tk *sim.Task) { e.StartPutShort(tk, 0, payload) }
				default:
					post = func(tk *sim.Task) { e.StartPutBcopy(tk, 0, payload) }
				}
				return retried(w, e, post)
			}
			sized := func(_ *Worker, e *Ep) simtest.Step {
				if am {
					return func(tk *sim.Task) { e.StartAm(tk, 7, payload) }
				}
				return func(tk *sim.Task) { e.StartPut(tk, payload) }
			}
			want, wantEnd, wantFailed := postStream(t, n, am, explicit)
			got, gotEnd, gotFailed := postStream(t, n, am, sized)
			if got.Posts != want.Posts || got.BusyPosts != want.BusyPosts || gotEnd != wantEnd {
				t.Errorf("%dB am=%v: sized post gave %d posts, %d busy, done at %v; explicit path %d, %d, %v",
					size, am, got.Posts, got.BusyPosts, gotEnd, want.Posts, want.BusyPosts, wantEnd)
			}
			if got.Posts != n || got.BusyPosts == 0 {
				t.Errorf("%dB am=%v: %d posts, %d busy; want %d posts after busy retries", size, am, got.Posts, got.BusyPosts, n)
			}
			if gotFailed != 0 || wantFailed != 0 {
				t.Errorf("%dB am=%v: %d sized and %d explicit posts left an error in LastPost", size, am, gotFailed, wantFailed)
			}
		}
	}
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
