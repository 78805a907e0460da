package perftest

import (
	"breakband/internal/campaign"
	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/sim"
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
		lat := AmLat(sys, Options{Iters: iters, Warmup: 30, MsgSize: size}).AdjustedNs
		sw := sys.Cfg.LLPPostMean() + sys.Cfg.LLPProgMean()
		return SizePoint{
			Bytes:       size,
			LatencyNs:   lat,
			SoftwareNs:  sw,
			SoftwarePct: sw / lat * 100,
		}
	})
}

// WindowedResult is one point of the poll-window ablation.
type WindowedResult struct {
	Window   int
	PerMsgNs float64
	// ModelMin is the paper's §4.2 lower bound on the window: below
	// MinPollPeriod the sender stalls on completion generation.
	ModelMin int
	// Err is the first transport error a post returned, nil on a complete
	// run; PerMsgNs stays zero when Err is set.
	Err error
}

// WindowedPutBw posts p messages then polls p completions per window — the
// access pattern behind the paper's §4.2 lower bound
// p >= gen_completion / LLP_post. For windows below the bound the sender
// waits on completion generation; above it the injection overhead flattens
// to the CPU time.
func WindowedPutBw(sys *node.System, window, iters int) *WindowedResult {
	// The target endpoint exists only to terminate the QP: put_bw is
	// one-sided, so the target CPU never progresses its worker and no
	// responder task is spawned.
	snd, _ := connectSenders(sys, sys.Nodes[:1], sys.Nodes[1], Options{MsgSize: 8, SignalPeriod: 1}, "windowed")
	res := &WindowedResult{Window: window}
	f := &windowedFrame{cfg: sys.Cfg, s: snd[0], res: res, windows: iters / window, window: window, warmup: 2}
	sys.K.SpawnTask("windowed_put_bw", f)
	sys.Run()
	res.ModelMin = minPollPeriod(sys.Cfg)
	return res
}

// windowedFrame drives the poll-window ablation: post a window, poll the
// window's completions before reusing it. A failed post ends the run after
// a flush of the in-flight tail.
type windowedFrame struct {
	cfg     *config.Config
	s       *sender
	res     *WindowedResult
	windows int
	window  int
	warmup  int

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
			f.s.ep.StartPut(t, f.s.msg)
			return
		case 2:
			if err := f.s.ep.LastPost(); err != nil {
				f.res.Err = err
				f.pc = 5
				f.s.w.StartFlush(t)
				return
			}
			f.i++
			f.pc = 1
		case 3: // poll loop head
			if f.completed < f.target {
				f.pc = 4
				f.s.w.StartProgress(t)
				return
			}
			t.Advance(f.cfg.SW.MeasUpdate.Sample(f.s.rand))
			f.wnd++
			f.pc = 0
		case 4:
			f.completed += f.s.w.LastProgress()
			f.pc = 3
		case 5:
			t.Return()
			return
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
