package perftest

import (
	"fmt"
	"strings"

	"breakband/internal/campaign"
	"breakband/internal/config"
	"breakband/internal/fabric"
	"breakband/internal/node"
	"breakband/internal/stats"
	"breakband/internal/trace"
	"breakband/internal/units"
	"breakband/internal/workload"
)

// NewCalib builds the stall-attribution calibration for sys. The wire
// term is the uncontended time of the fabric sys actually built
// (topo.Fabric.UncontendedWire), so on an uncontended run every component
// but Ideal attributes to exactly zero — the conservation tests pin this.
func NewCalib(sys *node.System) trace.Calib {
	return trace.Calib{WireIdeal: sys.Net.UncontendedWire}
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
// against. It holds for messages above 2048 B only, as PCIeWriteCycle
// does: two smaller writes fit in the posted data credits at once, so the
// receiver drains faster than one cycle per message.
func SaturationBottleneck(cfg *config.Config, msgSize int) units.Time {
	b := fabric.SerTime(msgSize)
	if p := PCIeWriteCycle(cfg, msgSize); p > b {
		b = p
	}
	return b
}

// SaturationPoint is one offered-load step of the sweep.
type SaturationPoint struct {
	// Load is the offered load as a fraction of the predicted bottleneck
	// service rate (1.0 = the analytic saturation point).
	Load float64
	// Offered and Delivered are aggregate message rates (msg/s) across all
	// senders: Offered = senders/period, Delivered = the messages delivered
	// over Elapsed, the span from the first arrival to the last message's
	// end. Past the knee Delivered holds at the bottleneck rate, and may
	// read up to one final-hop credit window of messages above Capacity: a
	// send completes when the receiving NIC acknowledges it, ahead of the
	// receiver's PCIe drain.
	Offered, Delivered float64
	Elapsed            units.Time
	// MeanLatency and Shares come from stall attribution over the traced
	// window (zero when tracing is disabled). Shares order matches
	// trace.Report.Shares: ideal, queue, stall, pend, backoff, waste.
	MeanLatency units.Time
	Shares      [6]float64
	Incomplete  int
	// HotPort is the busiest egress port (largest topo.PortStat.Busy), the
	// stage that saturates; past the knee the deepest queue can be a
	// sender's own backlog. Its depth is sampled at every enqueue/dequeue.
	HotPort            string
	QueueP50, QueueP99 float64
	MaxQueue           int
	// HotUtilization is the hot port's wire occupancy from time 0 to the
	// last message's end (the senders offer the same load throughout).
	HotUtilization float64
	// Err reports the point's failed messages, or a spec the workload
	// injector refused, nil on a complete point; the other fields are
	// partial when it is set.
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
// of an incast into node 0: at each load fraction, `senders` nodes
// (sys.Nodes[1..senders]) each offer iters msgSize-byte RDMA writes, one
// every senders*Bottleneck/load, as one periodic cohort of the workload
// injector (workload.Run). Every point runs on a fresh system from mkSys
// (fanned out on a parallelism-wide pool, <= 0 selects GOMAXPROCS; mkSys
// must be safe to call concurrently); build the config with TraceCapacity
// set to get per-point latency attribution in the result. msgSize must
// exceed 2048 B, where SaturationBottleneck holds, and iters be at least
// 1; anything else panics.
func SaturationSweep(mkSys func() *node.System, senders int, loads []float64, msgSize, iters, parallelism int) *SaturationResult {
	if msgSize <= 2048 {
		panic(fmt.Sprintf("perftest: saturation message size %d: the bottleneck model holds only above 2048 B, where one write fills the posted PCIe credits", msgSize))
	}
	if iters < 1 {
		panic(fmt.Sprintf("perftest: saturation needs at least one message per sender, got %d", iters))
	}
	probe := mkSys()
	res := &SaturationResult{
		Senders:    clampSenders(probe, senders),
		MsgSize:    msgSize,
		Bottleneck: SaturationBottleneck(probe.Cfg, msgSize),
		KneeIndex:  -1,
	}
	res.Capacity = 1 / res.Bottleneck.Seconds()
	probe.Shutdown()

	res.Points = campaign.Map(parallelism, loads, func(_ int, load float64) SaturationPoint {
		sys := mkSys()
		defer sys.Shutdown()
		return saturationPoint(sys, res.Senders, load, res.Bottleneck, msgSize, iters)
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

// saturationPoint runs one load step: the senders' periodic cohort through
// the workload injector, queue-depth sampling on every egress port, then
// rate and attribution accounting.
func saturationPoint(sys *node.System, senders int, load float64, bottleneck units.Time, msgSize, iters int) SaturationPoint {
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

	// The spec states the system mkSys built (workload.Run refuses any
	// other). A periodic client's arrivals fall one period apart from one
	// period after the start, so the window holds exactly iters of them.
	src := make([]int, senders)
	for i := range src {
		src[i] = i + 1
	}
	ts, cfg := sys.Topo().Spec(), sys.Cfg
	spec := &workload.Spec{
		Name:     "saturate",
		Nodes:    len(sys.Nodes),
		Topology: ts.Kind.String(),
		Radix:    ts.Radix,
		Credits:  ts.Credits,
		RxBudget: cfg.NICRxBudget,
		Faults:   workload.FaultSpec{DropRate: cfg.Faults.DropRate, CorruptRate: cfg.Faults.CorruptRate},
		Cohorts: []workload.Cohort{{
			Name:     "incast",
			Clients:  senders,
			Src:      src,
			Dst:      []int{0},
			Duration: units.Time(iters)*period + 1,
			Arrival:  workload.ArrivalSpec{Process: workload.ProcPeriodic, Rate: 1 / period.Seconds()},
			Size:     workload.SizeSpec{Dist: workload.SizeDistFixed, Bytes: msgSize},
		}},
	}
	wres, err := workload.Run(spec, sys, workload.RunOpt{})
	if err != nil {
		pt.Err = fmt.Errorf("load %.2f: %w", load, err)
		return pt
	}
	if err := wres.Err(); err != nil {
		pt.Err = fmt.Errorf("load %.2f: %w", load, err)
	}
	c := &wres.Cohorts[0]
	pt.Elapsed = c.LastDone - c.FirstAt
	pt.Delivered = float64(c.Delivered) / pt.Elapsed.Seconds()

	if rep := StallReport(sys); rep != nil && len(rep.Msgs) > 0 {
		pt.MeanLatency = rep.Measured / units.Time(len(rep.Msgs))
		pt.Shares = rep.Shares()
		pt.Incomplete = rep.Incomplete
	}

	var busiest units.Time
	for _, ps := range sys.Topo().PortStats() {
		if ps.Busy > busiest {
			busiest = ps.Busy
			pt.HotPort = ps.Name
			pt.MaxQueue = ps.MaxQueue
			pt.HotUtilization = float64(ps.Busy) / float64(c.LastDone)
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
