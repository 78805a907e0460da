package perftest

import (
	"fmt"
	"strings"

	"breakband/internal/campaign"
	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/stats"
	"breakband/internal/trace"
	"breakband/internal/units"
)

// NewCalib builds the stall-attribution calibration for sys. The wire
// term is the uncontended time of the fabric sys actually built
// (topo.Fabric.UncontendedWire), so on an uncontended run every component
// but Ideal attributes to exactly zero — the conservation tests pin this.
func NewCalib(sys *node.System) trace.Calib {
	return trace.Calib{
		WireIdeal: sys.Net.UncontendedWire,
		// With PCIe credits available the delivered frame's MWr issues
		// synchronously, so the uncontended receiver hold is zero;
		// anything beyond it is PCIe pend time.
		RxHold: func(int) units.Time { return 0 },
	}
}

// StallReport attributes the system's captured trace window (nil when
// tracing is disabled, i.e. Config.TraceCapacity was zero).
func StallReport(sys *node.System) *trace.Report {
	tr := sys.Tracer()
	if tr == nil {
		return nil
	}
	return trace.Attribute(tr.Events(), NewCalib(sys))
}

// SaturationBottleneck reports the predicted per-message service time at
// the slowest stage of an incast into one receiver: the receiver's downlink
// wire serialization or its PCIe write cycle, whichever is slower. The PCIe
// cycle gates the wire even without an rx budget — a delivered frame only
// returns its link credit once its host-memory write has issued, so the
// final hop's credit loop runs at the receiver's PCIe service rate. The
// inverse is the analytic saturation rate the sweep's knee is validated
// against.
func SaturationBottleneck(cfg *config.Config, msgSize int) units.Time {
	b := cfg.Fabric.SerTime(msgSize)
	if p := PCIeWriteCycle(cfg, msgSize); p > b {
		b = p
	}
	return b
}

// pacedPutFrame is one open-loop sender of the saturation sweep: it posts
// one RDMA write every period (posting immediately, back to back, when the
// fabric's backpressure has pushed it past a deadline), polling a
// completion after each post, then drains its in-flight tail (at once after
// a failed post). The measured
// window opens when the last sender finishes warmup and closes when the
// last sender has drained — so under saturation the window stretches past
// iters*period and the delivered rate falls below the offered rate.
type pacedPutFrame struct {
	cfg    *config.Config
	s      *sender
	period units.Time
	opt    *Options
	st     *winShared

	pc   int
	i    int
	next units.Time // next posting deadline
}

func (f *pacedPutFrame) Step(t *sim.Task) {
	s := f.s
	for {
		switch f.pc {
		case 0: // arm the pacing clock
			f.next = t.Now()
			f.pc = 1
		case 1: // loop head
			if f.i == f.opt.Warmup && t.Now() > f.st.start {
				f.st.start = t.Now()
			}
			if f.i >= f.opt.Warmup+f.opt.Iters {
				f.pc = 4
				continue
			}
			if d := f.next - t.Now(); d > 0 {
				t.Advance(d)
			}
			f.pc = 2
			s.ep.StartPut(t, s.msg)
			return
		case 2:
			if f.st.postFailed(s.ep) {
				f.pc = 4
				continue
			}
			f.next += f.period
			f.i++
			f.pc = 3
			s.w.StartProgress(t)
			return
		case 3:
			t.Advance(f.cfg.SW.BenchLoop.Sample(s.rand))
			f.pc = 1
		case 4: // drain the in-flight tail; the window closes when empty
			f.pc = 5
			s.w.StartFlush(t)
			return
		case 5:
			if t.Now() > f.st.end {
				f.st.end = t.Now()
			}
			f.st.done++
			t.Return()
			return
		}
	}
}

// SaturationPoint is one offered-load step of the sweep.
type SaturationPoint struct {
	// Load is the offered load as a fraction of the predicted bottleneck
	// service rate (1.0 = the analytic saturation point).
	Load float64
	// Offered and Delivered are aggregate message rates (msg/s) across all
	// senders: Offered = senders/period, Delivered = messages over the
	// measured window (posting plus drain).
	Offered, Delivered float64
	Elapsed            units.Time
	// MeanLatency and Shares come from stall attribution over the traced
	// window (zero when tracing is disabled). Shares order matches
	// trace.Report.Shares: ideal, queue, stall, pend, backoff, waste.
	MeanLatency units.Time
	Shares      [6]float64
	Incomplete  int
	// HotPort is the egress port with the deepest queue; its depth
	// distribution is sampled at every enqueue/dequeue transition.
	HotPort            string
	QueueP50, QueueP99 float64
	MaxQueue           int
	// HotUtilization is the hot port's wire occupancy over the whole run
	// (warmup is paced at the same load, so the run approximates steady
	// state).
	HotUtilization float64
	// Err is the first transport error a post returned, nil on a complete
	// point; the other fields are partial when it is set.
	Err error
}

// SaturationResult is the full sweep: offered load stepped across the
// predicted saturation point, with the knee — the first step whose
// delivered rate falls measurably short of offered — located against it.
type SaturationResult struct {
	Senders int
	MsgSize int
	// Bottleneck is the predicted per-message service time at the
	// saturating stage; Capacity is its inverse (msg/s).
	Bottleneck units.Time
	Capacity   float64
	Points     []SaturationPoint
	// KneeIndex locates the first saturated point (-1 when the sweep never
	// saturated). The model predicts the knee at Load 1.0.
	KneeIndex int
	// Err is the first point's transport error in load order, nil when
	// every point completed.
	Err error
}

// kneeFrac is the delivered/offered ratio below which a point counts as
// saturated: comfortably below pacing jitter and the drain-tail skew of an
// unsaturated point, comfortably above the shortfall one extra load step
// past the knee produces.
const kneeFrac = 0.95

// Knee reports the first saturated point, nil when the sweep never
// saturated.
func (r *SaturationResult) Knee() *SaturationPoint {
	if r.KneeIndex < 0 {
		return nil
	}
	return &r.Points[r.KneeIndex]
}

// SaturationSweep steps offered load across the predicted saturation point
// of an incast into node 0: at each load fraction, `senders` paced senders
// (sys.Nodes[1..senders]) each post every senders*Bottleneck/load. Every
// point runs on a fresh system from mkSys (fanned out on a
// parallelism-wide pool, <= 0 selects GOMAXPROCS; mkSys must be safe to
// call concurrently); build the config with TraceCapacity set to get
// per-point latency attribution in the result.
func SaturationSweep(mkSys func() *node.System, senders int, loads []float64, opt Options, parallelism int) *SaturationResult {
	probe := mkSys()
	opt.Defaults(probe.Cfg)
	res := &SaturationResult{
		Senders:    clampSenders(probe, senders),
		MsgSize:    opt.MsgSize,
		Bottleneck: SaturationBottleneck(probe.Cfg, opt.MsgSize),
		KneeIndex:  -1,
	}
	res.Capacity = 1 / res.Bottleneck.Seconds()
	probe.Shutdown()

	res.Points = campaign.Map(parallelism, loads, func(_ int, load float64) SaturationPoint {
		sys := mkSys()
		defer sys.Shutdown()
		return saturationPoint(sys, res.Senders, load, res.Bottleneck, opt)
	})
	for i := range res.Points {
		if res.Err = res.Points[i].Err; res.Err != nil {
			return res
		}
	}
	for i := range res.Points {
		p := &res.Points[i]
		if p.Delivered < kneeFrac*p.Offered {
			res.KneeIndex = i
			break
		}
	}
	return res
}

// saturationPoint runs one load step: paced senders, queue-depth sampling
// on every egress port, then rate and attribution accounting.
func saturationPoint(sys *node.System, senders int, load float64, bottleneck units.Time, opt Options) SaturationPoint {
	cfg := sys.Cfg
	period := units.Time(float64(senders) * float64(bottleneck) / load)
	pt := SaturationPoint{Load: load, Offered: float64(senders) / period.Seconds()}

	depths := map[string]*stats.Sample{}
	sys.Topo().OnDepth = func(at units.Time, port string, depth int) {
		s := depths[port]
		if s == nil {
			s = &stats.Sample{}
			depths[port] = s
		}
		s.Add(float64(depth))
	}

	snd, _ := connectSenders(sys, sys.Nodes[1:senders+1], sys.Nodes[0], opt, "sat")
	st := &winShared{}
	for i, s := range snd {
		sys.K.SpawnTask(fmt.Sprintf("sat.sender%d", i), &pacedPutFrame{cfg: cfg, s: s, period: period, opt: &opt, st: st})
	}
	sys.Run()
	if st.done != senders {
		panic(fmt.Sprintf("perftest: only %d of %d saturation senders finished", st.done, senders))
	}

	pt.Err = st.err
	pt.Elapsed = st.end - st.start
	pt.Delivered = float64(senders*opt.Iters) / pt.Elapsed.Seconds()

	if rep := StallReport(sys); rep != nil && len(rep.Msgs) > 0 {
		pt.MeanLatency = rep.Measured / units.Time(len(rep.Msgs))
		pt.Shares = rep.Shares()
		pt.Incomplete = rep.Incomplete
	}

	for _, ps := range sys.Topo().PortStats() {
		if ps.MaxQueue > pt.MaxQueue {
			pt.MaxQueue = ps.MaxQueue
			pt.HotPort = ps.Name
			pt.HotUtilization = float64(ps.Busy) / float64(st.end)
			if s := depths[ps.Name]; s != nil {
				pt.QueueP50 = s.Quantile(0.5)
				pt.QueueP99 = s.Quantile(0.99)
			}
		}
	}
	return pt
}

// Format renders the sweep as a table: one row per load step with rates,
// latency, the dominant stall components and the hot port, then the knee
// verdict against the analytic capacity.
func (r *SaturationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "saturation sweep: %d senders x %dB -> node 0, bottleneck %v/msg (capacity %.0f msg/s)\n",
		r.Senders, r.MsgSize, r.Bottleneck, r.Capacity)
	fmt.Fprintf(&b, "  %-5s %12s %12s %10s %7s %7s %7s %7s  %s\n",
		"load", "offered/s", "delivered/s", "mean lat", "queue%", "stall%", "pend%", "waste%", "hot port (p50/p99/max depth, util)")
	for i := range r.Points {
		p := &r.Points[i]
		mark := " "
		if i == r.KneeIndex {
			mark = "*"
		}
		hot := "-"
		if p.HotPort != "" {
			hot = fmt.Sprintf("%s (%.0f/%.0f/%d, %.0f%%)",
				p.HotPort, p.QueueP50, p.QueueP99, p.MaxQueue, 100*p.HotUtilization)
		}
		fmt.Fprintf(&b, "%s %-5.2f %12.0f %12.0f %10v %6.1f%% %6.1f%% %6.1f%% %6.1f%%  %s\n",
			mark, p.Load, p.Offered, p.Delivered, p.MeanLatency,
			100*p.Shares[1], 100*p.Shares[2], 100*p.Shares[3], 100*(p.Shares[4]+p.Shares[5]), hot)
	}
	if r.KneeIndex >= 0 {
		fmt.Fprintf(&b, "  knee at load %.2f (*): delivered %.0f msg/s vs %.0f offered; model predicts saturation at load 1.00\n",
			r.Points[r.KneeIndex].Load, r.Points[r.KneeIndex].Delivered, r.Points[r.KneeIndex].Offered)
	} else {
		fmt.Fprintf(&b, "  no knee: delivered tracked offered at every step\n")
	}
	return b.String()
}
