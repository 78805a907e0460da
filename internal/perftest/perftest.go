// Package perftest reimplements the two UCX perftest microbenchmarks the
// paper drives its low-level analysis with (§4):
//
//   - put_bw: single-threaded RDMA-write injection-rate test. Every message
//     generates a completion; the benchmark polls one completion every
//     PollBatch (16) posts, so once the transmit queue's depth is exhausted
//     each successful post is preceded by a busy post on average — the
//     steady state the paper's injection model describes.
//   - am_lat: ping-pong latency with send-receive (active message)
//     semantics; the benchmark reports half the round-trip time and performs
//     its measurement update inside the round trip.
//
// A tapped initiator (node.Node.AttachTap) asks for the measured window
// alone: at the end of warmup, put_bw and am_lat settle the initiator's
// link so every packet up to that instant reaches the analyzer, then clear
// it. An untapped initiator skips both, and every simulated value is the
// same either way.
//
// Every scenario that talks to uct directly posts through one path,
// uct.Ep.StartPut/StartAm: the inline short path up to 32 bytes, buffered
// copy above it, busy posts retried after a progress. A post error is
// therefore a transport failure (the QP exhausted its retries): the sender
// stops posting at its first one and drains, and the driver's result
// carries the first such error in its Err field, nil on a complete run.
// AmLat's two sides also stop waiting once either endpoint has failed.
// The lossy stream and the chaos soak report failures in their own
// results.
//
// The senders drain their in-flight tail, outside the measured window,
// with one call, uct.Worker.StartFlush: putLoopFrame, the all-to-all node
// frame, the saturation sweep's paced senders and the lossy stream (the
// workload injectors do the same). Like StartPut's busy-post retry, the
// flush polls exactly when some endpoint still has a send in flight, and
// under NoiseOff it parks on an empty completion queue instead of firing
// one kernel event per poll; every simulated value is the spin's. Failed
// sends retire through their error completions, so a flush ends on a
// failed endpoint too. AmLat polls for its pong itself.
//
// A run that times one software component selects its scope on the
// initiator node's profiler before it starts (internal/profile); the
// initiator then calibrates that profiler first.
//
// One put_bw loop (putLoopFrame) runs every closed-loop sender: PutBw is one
// sender, MultiPutBw (and MultiCoreSweep over it) one per core on the same
// node, OversubscribedPutBw the N-to-1 incast (with or without a receiver
// rx budget), and FlapIncastPutBw the incast over a link flap.
// connectSenders builds their sender sets and runPutLoops runs them
// against a shared measured window. The other scenarios keep their own
// loops: AmLat (and LatencySizeSweep over it), WindowedPutBw (the
// poll-window ablation), AllToAllPutBw, SaturationSweep (paced open-loop
// senders), LossyPutBw and ChaosSoak (sequence-verified streams under
// faults). ARCHITECTURE.md catalogs them with the bbperftest command that
// runs each.
package perftest

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/stats"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// Options shapes a perftest run.
type Options struct {
	Iters   int
	Warmup  int
	MsgSize int
	// Mode selects the descriptor path (PIO+inline by default).
	Mode uct.PostMode
	// SignalPeriod: 1 = every message signaled (the perftest behaviour).
	SignalPeriod int
}

// Defaults fills unset fields from cfg.
func (o *Options) Defaults(cfg *config.Config) {
	if o.Iters == 0 {
		o.Iters = cfg.Bench.Iters
	}
	if o.Warmup == 0 {
		o.Warmup = cfg.Bench.Warmup
	}
	if o.MsgSize == 0 {
		o.MsgSize = 8 // "Each message is 8 bytes, the size of a double."
	}
	if o.SignalPeriod == 0 {
		o.SignalPeriod = 1
	}
}

// PutBwResult reports a put_bw run.
type PutBwResult struct {
	Messages int
	Elapsed  units.Time
	// MsgRate is messages per second as the benchmark reports it.
	MsgRate float64
	// MeanInjNs is the inverse rate: mean time between injected messages.
	MeanInjNs float64
	Stats     uct.Stats
	Worker    *uct.Worker
	// Err is the first transport error a post returned, nil on a complete
	// run; the other fields are partial when it is set.
	Err error
}

// PutBw runs the RDMA-write injection benchmark from node 0 to node 1 of
// sys. The target's CPU is not involved (one-sided writes).
func PutBw(sys *node.System, opt Options) *PutBwResult {
	opt.Defaults(sys.Cfg)
	snd, _ := connectSenders(sys, sys.Nodes[:1], sys.Nodes[1], opt, "put_bw")
	st := runPutLoops(sys, snd, opt, "put_bw")

	w0 := snd[0].w
	res := &PutBwResult{Messages: opt.Iters, Elapsed: st.end - st.start, Stats: w0.Stats, Worker: w0, Err: st.err}
	res.MeanInjNs = res.Elapsed.Ns() / float64(opt.Iters)
	res.MsgRate = float64(opt.Iters) / res.Elapsed.Seconds()
	return res
}

// AmLatResult reports an am_lat run.
type AmLatResult struct {
	Iters int
	// ReportedNs is what the benchmark prints: round trip / 2, including
	// its own measurement update inside the loop.
	ReportedNs float64
	// AdjustedNs deducts half the measurement-update mean, the paper's
	// §4.3 correction, for comparison against the latency model.
	AdjustedNs float64
	// RTTs holds per-iteration round-trip times (ns).
	RTTs *stats.Sample
	// Workers expose LLP stats (initiator, target).
	W0, W1 *uct.Worker
	// Ep0 and Ep1 expose the endpoints (trace queries filter by their
	// ring addresses).
	Ep0, Ep1 *uct.Ep
	// Err is the first transport error of the ping-pong, nil on a
	// complete run; the other fields are partial when it is set.
	Err error
}

// Active-message ids of the am_lat ping-pong.
const amPing, amPong = 2, 3

// AmLat runs the send-receive ping-pong between node 0 (initiator) and
// node 1 (responder).
func AmLat(sys *node.System, opt Options) *AmLatResult {
	opt.Defaults(sys.Cfg)
	cfg := sys.Cfg
	n0, n1 := sys.Nodes[0], sys.Nodes[1]

	w0 := uct.NewWorker(n0, cfg)
	w1 := uct.NewWorker(n1, cfg)
	ep0 := w0.NewEp(opt.Mode, opt.SignalPeriod)
	ep1 := w1.NewEp(opt.Mode, opt.SignalPeriod)
	uct.Connect(ep0, ep1)

	gotPong, gotPing := false, false
	w0.SetAmHandler(amPong, func(t *sim.Task, data []byte) { gotPong = true })
	w1.SetAmHandler(amPing, func(t *sim.Task, data []byte) { gotPing = true })

	res := &AmLatResult{Iters: opt.Iters, RTTs: &stats.Sample{}, W0: w0, W1: w1, Ep0: ep0, Ep1: ep1}
	msg := make([]byte, opt.MsgSize)
	total := opt.Warmup + opt.Iters

	// Responder: wait for each ping, answer with a pong.
	sys.K.SpawnTask("am_lat.responder", &amLatEchoFrame{w: w1, ep: ep1, msg: msg, total: total, gotPing: &gotPing, res: res})

	// Initiator: ping, update measurement, spin for the pong.
	sys.K.SpawnTask("am_lat.initiator", &amLatPingFrame{cfg: cfg, n0: n0, w0: w0, ep0: ep0, msg: msg,
		opt: &opt, res: res, total: total, gotPong: &gotPong})
	sys.Run()

	res.AdjustedNs = res.ReportedNs - cfg.SW.MeasUpdate.Mean().Ns()/2
	return res
}

// failed records the first transport error of the ping-pong: a post that
// returned one, or either endpoint failing while its side waits (the peer
// of a failed side would otherwise poll forever). It reports whether the
// run has failed.
func (r *AmLatResult) failed(err error) bool {
	switch {
	case r.Err != nil:
	case err != nil:
		r.Err = err
	case r.Ep0.Err != nil:
		r.Err = r.Ep0.Err
	case r.Ep1.Err != nil:
		r.Err = r.Ep1.Err
	}
	return r.Err != nil
}

// amLatEchoFrame is the ping-pong responder: wait for each ping, answer
// with a pong.
type amLatEchoFrame struct {
	w       *uct.Worker
	ep      *uct.Ep
	msg     []byte
	total   int
	gotPing *bool
	res     *AmLatResult

	pc int
	i  int
}

func (f *amLatEchoFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.ep.StartPostRecvs(t, 64)
			return
		case 1: // iteration head
			if f.i >= f.total {
				t.Return()
				return
			}
			f.pc = 2
		case 2: // spin for the ping
			if f.res.failed(nil) {
				t.Return()
				return
			}
			if !*f.gotPing {
				f.pc = 3
				f.w.StartProgress(t)
				return
			}
			*f.gotPing = false
			f.pc = 4
			f.ep.StartAm(t, amPong, f.msg)
			return
		case 3:
			f.pc = 2
		case 4:
			if f.res.failed(f.ep.LastPost()) {
				t.Return()
				return
			}
			f.i++
			f.pc = 1
		}
	}
}

// amLatPingFrame is the ping-pong initiator: post the ping, run the
// measurement update inside the round trip, spin for the pong.
type amLatPingFrame struct {
	cfg     *config.Config
	n0      *node.Node
	w0      *uct.Worker
	ep0     *uct.Ep
	msg     []byte
	opt     *Options
	res     *AmLatResult
	total   int
	gotPong *bool

	pc    int
	i     int
	t0    units.Time
	start units.Time
}

func (f *amLatPingFrame) Step(t *sim.Task) {
	cfg := f.cfg
	for {
		switch f.pc {
		case 0:
			f.n0.Prof.CalibrateIfSelected(t, cfg.Prof.CalibrationSamples)
			f.pc = 1
			f.ep0.StartPostRecvs(t, 64)
			return
		case 1: // iteration head
			if f.i >= f.total {
				elapsed := t.Now() - f.start
				f.res.ReportedNs = elapsed.Ns() / float64(2*f.opt.Iters)
				t.Return()
				return
			}
			if f.i == f.opt.Warmup {
				if f.n0.Tap != nil {
					// See putLoopFrame: settle the trace before clearing.
					f.pc = 11
					if t.Pause() {
						return
					}
					continue
				}
				f.start = t.Now()
			}
			f.pc = 2
		case 11:
			f.n0.Tap.Clear()
			f.start = t.Now()
			f.pc = 2
		case 2: // post the ping
			f.t0 = t.Now()
			f.pc = 3
			f.ep0.StartAm(t, amPing, f.msg)
			return
		case 3:
			if f.res.failed(f.ep0.LastPost()) {
				t.Return()
				return
			}
			// The measurement update happens inside the round trip
			// (paper §4.3: half of it is deducted when comparing to
			// the model).
			t.Advance(cfg.SW.MeasUpdate.Sample(f.n0.Rand))
			f.pc = 4
		case 4: // spin for the pong
			if f.res.failed(nil) {
				t.Return()
				return
			}
			if !*f.gotPong {
				f.pc = 5
				f.w0.StartProgress(t)
				return
			}
			*f.gotPong = false
			t.Advance(cfg.SW.BenchLoop.Sample(f.n0.Rand))
			if f.i >= f.opt.Warmup {
				f.res.RTTs.Add((t.Now() - f.t0).Ns())
			}
			f.i++
			f.pc = 1
		case 5:
			f.pc = 4
		}
	}
}

// String renders a put_bw result like the ucx_perftest footer.
func (r *PutBwResult) String() string {
	return fmt.Sprintf("put_bw: %d msgs in %v -> %.0f msg/s (%.2f ns between messages; %d busy posts)",
		r.Messages, r.Elapsed, r.MsgRate, r.MeanInjNs, r.Stats.BusyPosts)
}

// String renders an am_lat result.
func (r *AmLatResult) String() string {
	return fmt.Sprintf("am_lat: %d iters, reported %.2f ns (adjusted %.2f ns)",
		r.Iters, r.ReportedNs, r.AdjustedNs)
}
