// Package perftest reimplements the two UCX perftest microbenchmarks the
// paper drives its low-level analysis with (§4):
//
//   - put_bw: single-threaded RDMA-write injection-rate test. Every message
//     generates a completion; the benchmark polls one completion every
//     pollBatch (16) posts, so once the transmit queue's depth is exhausted
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
// stops posting at its first one and drains. A QP can also fail after the
// last post, while the tail drains. The driver's result carries the first
// error that a post returned or that the drain retired in its Err field,
// nil on a complete run. The chaos soak reports failures in its own result.
//
// The drivers that talk to uct wait for completions in one loop,
// uct.Worker.StartProgressUntil, which tests its predicate before every
// poll and, like StartPut's busy-post retry, parks on an empty completion
// queue instead of firing one kernel event per poll, under NoiseOff and
// NoiseOn alike; every simulated value is the spin's. The senders drain their in-flight tail,
// outside the measured window, with StartFlush (that loop until no send is
// in flight) at the end of putLoopFrame, as the workload injectors do, and
// WindowedPutBw drains each window with it. Failed sends retire through
// their error completions, so a flush ends on a failed endpoint too.
// AmLat's two sides wait for their ping and pong, and the lossy verifier
// for its stream, until the message arrives or the run has failed. A
// parked wait sees its own worker's completions, so the side that fails
// wakes its peer (uct.Worker.Wake): the peer ends where its spin would
// have, and a failed run leaves no task parked.
//
// A run that times one software component selects its scope on the
// initiator node's profiler before it starts (internal/profile); the
// initiator then calibrates that profiler first.
//
// One put_bw loop (putLoopFrame) runs every closed-loop sender: PutBw is one
// sender, MultiPutBw (and MultiCoreSweep over it) one per core on the same
// node, OversubscribedPutBw the N-to-1 incast (with or without a receiver
// rx budget), FlapIncastPutBw the incast over a link flap, AllToAllPutBw
// one sender per node whose iteration posts to every peer, and LossyPutBw
// one sender of sequence-stamped active messages whose whole stream is the
// loop's unmeasured phase. connectSenders builds the one-endpoint sender
// sets (and AmLat's pair) and runPutLoops runs any set against a shared
// measured window. SaturationSweep keeps no sender of its own: each load
// step is one periodic cohort of the workload injector (internal/workload),
// the one open-loop paced sender. The other scenarios keep their own
// loops: AmLat (and LatencySizeSweep over it), WindowedPutBw (the
// poll-window ablation) and ChaosSoak (sequence-verified MPI streams under
// endpoint faults). AmLat, WindowedPutBw and the lossy verifier keep their
// loops but not their own polls. ARCHITECTURE.md catalogs them with the
// bbperftest command that runs each.
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
}

// signalPeriod is every perftest endpoint's uct signaling period: each
// message is signaled, the ucx_perftest behaviour.
const signalPeriod = 1

// pollBatch is put_bw's poll cadence: one completion poll every pollBatch
// posts (paper §4.2: 16).
const pollBatch = 16

// Defaults fills unset fields: 1000 measured iterations after 100 warmup
// ones, of 8-byte messages.
func (o *Options) Defaults() {
	if o.Iters == 0 {
		o.Iters = 1000
	}
	if o.Warmup == 0 {
		o.Warmup = 100
	}
	if o.MsgSize == 0 {
		o.MsgSize = 8 // "Each message is 8 bytes, the size of a double."
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
	// Err is the first transport error a post returned or the drain
	// retired, nil on a complete run; the other fields are then partial.
	Err error
}

// PutBw runs the RDMA-write injection benchmark from node 0 to node 1 of
// sys. The target's CPU is not involved (one-sided writes).
func PutBw(sys *node.System, opt Options) *PutBwResult {
	opt.Defaults()
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
	opt.Defaults()
	cfg := sys.Cfg
	snd, w1 := connectSenders(sys, sys.Nodes[:1], sys.Nodes[1], opt, "am_lat")
	w0, ep0, ep1 := snd[0].w, snd[0].eps[0], w1.Eps[0]

	res := &AmLatResult{Iters: opt.Iters, RTTs: &stats.Sample{}, W0: w0, W1: w1, Ep0: ep0, Ep1: ep1}
	msg := snd[0].msg
	total := opt.Warmup + opt.Iters

	// Responder: wait for each ping, answer with a pong.
	sys.K.SpawnTask("am_lat.responder", &amLatEchoFrame{w: w1, ep: ep1, msg: msg, total: total,
		ping: newAmWait(w1, amPing, res), res: res})

	// Initiator: ping, update measurement, wait for the pong.
	sys.K.SpawnTask("am_lat.initiator", &amLatPingFrame{cfg: cfg, n0: sys.Nodes[0], w0: w0, ep0: ep0, msg: msg,
		opt: &opt, res: res, total: total, pong: newAmWait(w0, amPong, res)})
	sys.Run()

	res.AdjustedNs = res.ReportedNs - cfg.SW.MeasUpdate.Mean().Ns()/2
	return res
}

// failed records the first transport error of the ping-pong: a post that
// returned one, or either endpoint failing while its side waits (a spinning
// peer of a failed side would otherwise poll forever). The side that
// records it wakes both workers, so a peer parked in its wait tests again
// (uct.Worker.Wake; the recording side's own is not parked). It reports
// whether the run has failed.
func (r *AmLatResult) failed(err error) bool {
	if r.Err != nil {
		return true
	}
	switch {
	case err != nil:
		r.Err = err
	case r.Ep0.Err != nil:
		r.Err = r.Ep0.Err
	case r.Ep1.Err != nil:
		r.Err = r.Ep1.Err
	default:
		return false
	}
	r.W0.Wake()
	r.W1.Wake()
	return true
}

// amWait is one side's wait in the ping-pong: the side's AM handler sets
// got, and arrived, bound once per run, ends the side's
// uct.Worker.StartProgressUntil on the message or on the run's failure.
type amWait struct {
	got     bool
	arrived func() bool
}

// newAmWait registers w's handler for active message id and returns the
// wait for it.
func newAmWait(w *uct.Worker, id uint8, res *AmLatResult) *amWait {
	a := &amWait{}
	w.SetAmHandler(id, func(*sim.Task, []byte) { a.got = true })
	a.arrived = func() bool { return res.failed(nil) || a.got }
	return a
}

// amLatEchoFrame is the ping-pong responder: wait for each ping, answer
// with a pong.
type amLatEchoFrame struct {
	w     *uct.Worker
	ep    *uct.Ep
	msg   []byte
	total int
	ping  *amWait
	res   *AmLatResult

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
		case 1: // iteration head: wait for the ping
			if f.i >= f.total {
				t.Return()
				return
			}
			f.pc = 2
			f.w.StartProgressUntil(t, f.ping.arrived)
			return
		case 2: // the ping arrived, or the run failed
			if f.res.failed(nil) {
				t.Return()
				return
			}
			f.ping.got = false
			f.pc = 3
			f.ep.StartAm(t, amPong, f.msg)
			return
		case 3:
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
// measurement update inside the round trip, wait for the pong.
type amLatPingFrame struct {
	cfg   *config.Config
	n0    *node.Node
	w0    *uct.Worker
	ep0   *uct.Ep
	msg   []byte
	opt   *Options
	res   *AmLatResult
	total int
	pong  *amWait

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
			f.n0.Prof.CalibrateIfSelected(t)
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
			f.w0.StartProgressUntil(t, f.pong.arrived)
			return
		case 4: // the pong arrived, or the run failed
			if f.res.failed(nil) {
				t.Return()
				return
			}
			f.pong.got = false
			t.Advance(cfg.SW.BenchLoop.Sample(f.n0.Rand))
			if f.i >= f.opt.Warmup {
				f.res.RTTs.Add((t.Now() - f.t0).Ns())
			}
			f.i++
			f.pc = 1
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
