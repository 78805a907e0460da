// Package osu reimplements the two OSU microbenchmarks the paper validates
// its full-stack models against (§6):
//
//   - MessageRate (osu_mbw_mr-style): windows of MPI_Isend followed by
//     MPI_Waitall. Per the paper's footnote, the per-window send-receive
//     synchronization is removed for clean analysis: the receiver only
//     drives progress and sinks messages. The inverse of the measured rate
//     is the observed overall injection overhead.
//   - Latency (osu_latency-style): blocking MPI Send/Recv ping-pong;
//     reports half the round trip, the observed end-to-end latency.
//
// Both drivers run as continuation tasks (sim.SpawnTask), each rank a
// resumable frame machine over the frame-based MPI layer. A run that times
// one software component selects its scope on node 0's profiler before it
// starts (internal/profile); rank 0 then calibrates that profiler first.
//
// A message-rate window must be a multiple of the configured UCP signal
// period (config.Config.SignalPeriod): MPI_Waitall completes a window only
// through its signaled sends, so a window that ends on unsignaled isends
// would wait forever. Messages are eager, at most ucp.MaxBcopy bytes.
package osu

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/mpi"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/stats"
	"breakband/internal/ucp"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// DefaultWindow is the message-rate isends per window. It exceeds
// uct.SQDepth, so a realistic share of posts go busy, reproducing the
// paper's Misc term (§6), and is a multiple of the default signal period.
const DefaultWindow = 192

// Options shapes an OSU run. A zero field takes its default.
type Options struct {
	// Windows is the number of isend windows (message rate, default 20).
	Windows int
	// Window is the isends per window (default DefaultWindow).
	Window int
	// Iters is the ping-pong count (latency, default 1000), after Warmup
	// (default 100) unmeasured ones.
	Iters  int
	Warmup int
	// MsgSize is the user payload (8 bytes by default).
	MsgSize int
}

func (o *Options) defaults() {
	if o.Windows == 0 {
		o.Windows = 20
	}
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.Iters == 0 {
		o.Iters = 1000
	}
	if o.Warmup == 0 {
		o.Warmup = 100
	}
	if o.MsgSize == 0 {
		o.MsgSize = 8
	}
}

// check panics, naming the rule, on options a run could only spin on or
// garble: a window that ends on unsignaled isends, a payload above the
// eager limit (the receiver would wait for sends that failed), or a count
// below one.
func (o *Options) check(signalPeriod int) {
	switch {
	case o.Window < 1 || o.Window%signalPeriod != 0:
		panic(fmt.Sprintf("osu: window %d is not a positive multiple of the signal period %d", o.Window, signalPeriod))
	case o.MsgSize < 1 || o.MsgSize > ucp.MaxBcopy:
		panic(fmt.Sprintf("osu: message size %d outside [1, %d], ucp's eager limit", o.MsgSize, ucp.MaxBcopy))
	case o.Windows < 1 || o.Iters < 1 || o.Warmup < 0:
		panic(fmt.Sprintf("osu: %d windows, %d iterations after %d warmup: need at least one", o.Windows, o.Iters, o.Warmup))
	}
}

// MessageRateResult reports an osu_mbw_mr-style run.
type MessageRateResult struct {
	Messages int
	Elapsed  units.Time
	// MsgRate is messages/second; MeanInjNs its inverse — the observed
	// overall injection overhead of §6.
	MsgRate   float64
	MeanInjNs float64
	// BusyPosts and WaitallTimeNs feed the §6 methodology (Post_prog and
	// Misc derivations).
	BusyPosts      uint64
	WaitallTotalNs float64
	Sender         *mpi.Rank
	Receiver       *mpi.Rank
}

// mrRecvFrame sinks everything at the protocol level (no per-window sync,
// per the paper's footnote).
type mrRecvFrame struct {
	r     *mpi.Rank
	total int
	pc    int
}

func (f *mrRecvFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.r.StartPreparePostedRecvs(t, 512)
			return
		case 1:
			if int(f.r.Worker.Stats.RecvCompletions+f.r.Worker.Stats.UnexpectedMsgs) >= f.total {
				t.Return()
				return
			}
			f.pc = 2
			f.r.Worker.StartProgress(t)
			return
		case 2:
			f.pc = 1
		}
	}
}

// mrSendFrame drives the isend windows: one warmup window, then the
// measured ones.
type mrSendFrame struct {
	r   *mpi.Rank
	cfg *config.Config
	opt *Options
	res *MessageRateResult
	pc  int

	data    []byte
	reqs    []*mpi.Request
	i       int
	wnd     int
	tagBase int
	warmed  bool
	busy0   uint64
	t0      units.Time
	start   units.Time
}

func (f *mrSendFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			f.r.Node.Prof.CalibrateIfSelected(t)
			f.pc = 10
			f.r.StartPreparePostedRecvs(t, 512)
			return
		case 10: // window start: every window refills reqs
			f.i = 0
			f.pc = 11
		case 11: // post loop head
			if f.i < len(f.reqs) {
				f.pc = 12
				f.r.StartIsend(t, 1, f.tagBase+f.i, f.data)
				return
			}
			f.t0 = t.Now()
			f.pc = 13
			f.r.StartWaitall(t, f.reqs)
			return
		case 12:
			f.reqs[f.i] = f.r.LastIsend()
			f.i++
			f.pc = 11
		case 13: // window done
			f.res.WaitallTotalNs += (t.Now() - f.t0).Ns()
			if !f.warmed {
				// The warmup window just finished: reset and start the
				// measured region.
				f.warmed = true
				f.res.WaitallTotalNs = 0
				f.busy0 = f.r.Worker.Stats.BusyPosts
				f.start = t.Now()
			} else {
				t.Advance(f.cfg.SW.BenchLoop.Sample(f.r.Node.Rand))
				f.wnd++
			}
			if f.wnd < f.opt.Windows {
				f.tagBase = (f.wnd + 1) * f.opt.Window
				f.pc = 10
				continue
			}
			f.res.Elapsed = t.Now() - f.start
			f.res.BusyPosts = f.r.Worker.Stats.BusyPosts - f.busy0
			t.Return()
			return
		}
	}
}

// MessageRate runs the message-rate benchmark from rank 0 to rank 1.
func MessageRate(sys *node.System, opt Options) *MessageRateResult {
	opt.defaults()
	cfg := sys.Cfg
	opt.check(cfg.SignalPeriod)
	comm := mpi.NewComm(sys.Nodes[:2], cfg, uct.PIOInline)
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	res := &MessageRateResult{Sender: r0, Receiver: r1}

	totalMsgs := (opt.Windows + 1) * opt.Window // +1 warmup window
	data := make([]byte, opt.MsgSize)

	sys.K.SpawnTask("osu_mr.recv", &mrRecvFrame{r: r1, total: totalMsgs})
	sys.K.SpawnTask("osu_mr.send", &mrSendFrame{r: r0, cfg: cfg, opt: &opt, res: res, data: data,
		reqs: make([]*mpi.Request, opt.Window)})
	sys.Run()

	res.Messages = opt.Windows * opt.Window
	res.MeanInjNs = res.Elapsed.Ns() / float64(res.Messages)
	res.MsgRate = float64(res.Messages) / res.Elapsed.Seconds()
	return res
}

// LatencyResult reports an osu_latency-style run.
type LatencyResult struct {
	Iters int
	// ReportedNs is half the mean round trip — the observed end-to-end
	// latency of §6.
	ReportedNs float64
	RTTs       *stats.Sample
	Rank0      *mpi.Rank
	Rank1      *mpi.Rank
}

// latEchoFrame is rank 1 of the ping-pong: recv then send, total times.
type latEchoFrame struct {
	r     *mpi.Rank
	total int
	data  []byte
	pc    int
	i     int
}

func (f *latEchoFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.r.StartPreparePostedRecvs(t, 64)
			return
		case 1:
			if f.i >= f.total {
				t.Return()
				return
			}
			f.pc = 2
			f.r.StartRecv(t, 0, f.i)
			return
		case 2:
			f.pc = 3
			f.r.StartSend(t, 0, f.i, f.data)
			return
		case 3:
			f.i++
			f.pc = 1
		}
	}
}

// latPingFrame is rank 0 of the ping-pong: send then recv, timing the
// post-warmup round trips.
type latPingFrame struct {
	r   *mpi.Rank
	cfg *config.Config
	opt *Options
	res *LatencyResult
	pc  int

	data  []byte
	total int
	i     int
	t0    units.Time
	start units.Time
}

func (f *latPingFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			f.r.Node.Prof.CalibrateIfSelected(t)
			f.pc = 1
			f.r.StartPreparePostedRecvs(t, 64)
			return
		case 1: // iteration head
			if f.i >= f.total {
				f.res.ReportedNs = (t.Now() - f.start).Ns() / float64(2*f.opt.Iters)
				t.Return()
				return
			}
			if f.i == f.opt.Warmup {
				f.start = t.Now()
			}
			f.t0 = t.Now()
			f.pc = 2
			f.r.StartSend(t, 1, f.i, f.data)
			return
		case 2:
			f.pc = 3
			f.r.StartRecv(t, 1, f.i)
			return
		case 3:
			t.Advance(f.cfg.SW.BenchLoop.Sample(f.r.Node.Rand))
			if f.i >= f.opt.Warmup {
				f.res.RTTs.Add((t.Now() - f.t0).Ns())
			}
			f.i++
			f.pc = 1
		}
	}
}

// Latency runs the blocking ping-pong between ranks 0 and 1. Sends are
// signaled every message here (the latency path does not batch completions),
// while the message-rate test keeps the configured unsignaled period.
func Latency(sys *node.System, opt Options) *LatencyResult {
	opt.defaults()
	cfg := *sys.Cfg // shallow copy: per-run signal period tweak
	cfg.SignalPeriod = 1
	opt.check(cfg.SignalPeriod)
	comm := mpi.NewComm(sys.Nodes[:2], &cfg, uct.PIOInline)
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	res := &LatencyResult{Iters: opt.Iters, RTTs: &stats.Sample{}, Rank0: r0, Rank1: r1}

	total := opt.Warmup + opt.Iters
	data := make([]byte, opt.MsgSize)

	sys.K.SpawnTask("osu_lat.rank1", &latEchoFrame{r: r1, total: total, data: data})
	sys.K.SpawnTask("osu_lat.rank0", &latPingFrame{r: r0, cfg: &cfg, opt: &opt, res: res, data: data, total: total})
	sys.Run()
	return res
}

// String renders the message-rate result.
func (r *MessageRateResult) String() string {
	return fmt.Sprintf("osu_mr: %d msgs in %v -> %.0f msg/s (%.2f ns/msg, %d busy posts)",
		r.Messages, r.Elapsed, r.MsgRate, r.MeanInjNs, r.BusyPosts)
}

// String renders the latency result.
func (r *LatencyResult) String() string {
	return fmt.Sprintf("osu_latency: %d iters -> %.2f ns one-way", r.Iters, r.ReportedNs)
}
