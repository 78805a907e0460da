package perftest

import (
	"breakband/internal/campaign"
	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/stats"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// SizePoint is one message-size measurement of the latency sweep.
type SizePoint struct {
	Bytes int
	// LatencyNs is the adjusted one-way latency.
	LatencyNs float64
	// SoftwareNs estimates the constant CPU share (the LLP post and
	// progress means), so SoftwarePct shows the paper's §1 point: the
	// software share of latency collapses as messages grow, which is why
	// the paper focuses its software analysis on small messages.
	SoftwareNs  float64
	SoftwarePct float64
}

// LatencySizeSweep measures one-way latency across message sizes. Sizes at
// or below the inline maximum use the PIO short path; larger ones the
// buffered-copy path, as UCX selects by size. Each size runs on its own
// fresh system, fanned out on a parallelism-wide pool (<= 0 selects
// GOMAXPROCS); mkSys must be safe to call concurrently.
func LatencySizeSweep(mkSys func() *node.System, sizes []int, iters, parallelism int) []SizePoint {
	return campaign.Map(parallelism, sizes, func(_, size int) SizePoint {
		sys := mkSys()
		defer sys.Shutdown()
		res := amLatAuto(sys, size, iters)
		sw := sys.Cfg.LLPPostMean() + sys.Cfg.LLPProgMean()
		return SizePoint{
			Bytes:       size,
			LatencyNs:   res,
			SoftwareNs:  sw,
			SoftwarePct: sw / res * 100,
		}
	})
}

// amLatAuto is am_lat with automatic short/bcopy path selection by size. It
// reuses the am_lat driver frames with auto-path strict posting.
func amLatAuto(sys *node.System, size, iters int) float64 {
	cfg := sys.Cfg
	n0, n1 := sys.Nodes[0], sys.Nodes[1]
	w0 := uct.NewWorker(n0, cfg)
	w1 := uct.NewWorker(n1, cfg)
	ep0 := w0.NewEp(uct.PIOInline, 1)
	ep1 := w1.NewEp(uct.PIOInline, 1)
	uct.Connect(ep0, ep1)

	const amPing, amPong = 2, 3
	gotPong, gotPing := false, false
	w0.SetAmHandler(amPong, func(t *sim.Task, data []byte) { gotPong = true })
	w1.SetAmHandler(amPing, func(t *sim.Task, data []byte) { gotPing = true })

	msg := make([]byte, size)
	opt := Options{Iters: iters, Warmup: 30}
	total := opt.Warmup + opt.Iters
	res := &AmLatResult{Iters: iters, RTTs: &stats.Sample{}}

	echo := &amLatEchoFrame{w: w1, ep: ep1, total: total, gotPing: &gotPing}
	echo.postF = postSpinFrame{w: w1, ep: ep1, kind: postAmAuto, strict: true, id: amPong, msg: msg}
	sys.K.SpawnTask("sweep.responder", echo)

	ping := &amLatPingFrame{cfg: cfg, n0: n0, w0: w0, opt: &opt, res: res, total: total, gotPong: &gotPong}
	ping.postF = postSpinFrame{w: w0, ep: ep0, kind: postAmAuto, strict: true, id: amPing, msg: msg}
	sys.K.SpawnTask("sweep.initiator", ping)
	sys.Run()
	return res.ReportedNs - cfg.SW.MeasUpdate.Mean().Ns()/2
}

// WindowedResult is one point of the poll-window ablation.
type WindowedResult struct {
	Window   int
	PerMsgNs float64
	// ModelMin is the paper's §4.2 lower bound on the window: below
	// MinPollPeriod the sender stalls on completion generation.
	ModelMin int
}

// WindowedPutBw posts p messages then polls p completions per window — the
// access pattern behind the paper's §4.2 lower bound
// p >= gen_completion / LLP_post. For windows below the bound the sender
// waits on completion generation; above it the injection overhead flattens
// to the CPU time.
func WindowedPutBw(sys *node.System, window, iters int) *WindowedResult {
	cfg := sys.Cfg
	n0, n1 := sys.Nodes[0], sys.Nodes[1]
	w0 := uct.NewWorker(n0, cfg)
	ep0 := w0.NewEp(uct.PIOInline, 1)
	// The target endpoint exists only to terminate the QP: put_bw is
	// one-sided, so the target CPU never progresses its worker and no
	// responder task is spawned.
	ep1 := uct.NewWorker(n1, cfg).NewEp(uct.PIOInline, 1)
	uct.Connect(ep0, ep1)
	tgt := n1.Mem.Alloc("windowed.target", 4096, 64)
	ep0.RemoteBuf = tgt.Base

	msg := make([]byte, 8)
	res := &WindowedResult{Window: window}
	f := &windowedFrame{cfg: cfg, n0: n0, w0: w0, res: res, windows: iters / window, window: window, warmup: 2}
	f.postF = postSpinFrame{w: w0, ep: ep0, kind: postPutShort, msg: msg}
	sys.K.SpawnTask("windowed_put_bw", f)
	sys.Run()
	res.ModelMin = minPollPeriod(cfg)
	return res
}

// windowedFrame drives the poll-window ablation: post a window, poll the
// window's completions before reusing it.
type windowedFrame struct {
	cfg     *config.Config
	n0      *node.Node
	w0      *uct.Worker
	res     *WindowedResult
	windows int
	window  int
	warmup  int

	postF     postSpinFrame
	pc        int
	wnd       int
	i         int
	completed int
	target    int
	start     units.Time
}

func (f *windowedFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0: // window head
			if f.wnd >= f.windows+f.warmup {
				f.res.PerMsgNs = (t.Now() - f.start).Ns() / float64(f.windows*f.window)
				t.Return()
				return
			}
			if f.wnd == f.warmup {
				f.start = t.Now()
				f.completed = 0
			}
			f.i = 0
			f.pc = 1
		case 1: // post loop head
			if f.i >= f.window {
				// Poll the window's completions before reusing it.
				f.target = f.completed + f.window
				f.pc = 3
				continue
			}
			f.pc = 2
			f.postF.start(t)
			return
		case 2:
			f.i++
			f.pc = 1
		case 3: // poll loop head
			if f.completed < f.target {
				f.pc = 4
				f.w0.StartProgress(t)
				return
			}
			t.Advance(f.cfg.SW.MeasUpdate.Sample(f.n0.Rand))
			f.wnd++
			f.pc = 0
		case 4:
			f.completed += f.w0.LastProgress()
			f.pc = 3
		}
	}
}

// WindowedSweep runs WindowedPutBw across window sizes, one fresh system
// per point, fanned out on a parallelism-wide pool (<= 0 selects
// GOMAXPROCS); mkSys must be safe to call concurrently.
func WindowedSweep(mkSys func() *node.System, windows []int, iters, parallelism int) []*WindowedResult {
	return campaign.Map(parallelism, windows, func(_, window int) *WindowedResult {
		sys := mkSys()
		defer sys.Shutdown()
		return WindowedPutBw(sys, window, iters)
	})
}

// minPollPeriod evaluates the §4.2 bound from the configured means.
// gen_completion uses the Table-1 calibration targets (the live config
// values measure to these through the methodology).
func minPollPeriod(cfg *config.Config) int {
	return int(config.TabGenCompletion/cfg.LLPPostMean()) + 1
}
