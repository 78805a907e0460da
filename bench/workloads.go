package main

import (
	_ "embed"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"

	"breakband/internal/config"
	"breakband/internal/measure"
	"breakband/internal/node"
	"breakband/internal/osu"
	"breakband/internal/perftest"
	"breakband/internal/stats"
	"breakband/internal/topo"
	"breakband/internal/units"
	wl "breakband/internal/workload"
)

//go:embed workloads/openloop-tenants.yaml
var openloopYAML []byte

// Simulated work per round. The counts were sized so that a workload's
// timed run of about 10 s holds tens of rounds on a 2-core x86 host.
const (
	osuWindows      = 300  // x 192 isends per window
	incastSenders   = 7    // into node 0 of an 8-node fat-tree
	incastMsgSize   = 4096 // bcopy puts, so one MWr fills the posted credits
	incastRxBudget  = 8
	incastWarmup    = 100
	incastIters     = 1000
	campaignSamples = 400
	campaignWindows = 20
	// traceCapacity holds every event of a full round of each message
	// workload, so the attribution sees every message.
	traceCapacity = 1 << 20
	// validationPct is the paper's bound on model-vs-observed error.
	validationPct = 5.0
	// validationPrefix marks a round value holding one model validation's
	// signed error in percent. The bound applies to its median over the
	// run's first rounds: with noise on, about 1 seed in 100 draws a rare
	// preemption spike into a 400-sample mean and lands one validation
	// just past 5%.
	validationPrefix = "validation:"
)

// params selects one round's inputs.
type params struct {
	seed   uint64
	scale  float64 // share of the full round's simulated work
	traced bool    // turn on the simulator's event tracer
}

// scaled shrinks a work count for smoke runs, keeping at least one unit.
func scaled(n int, scale float64) int { return max(1, int(math.Round(float64(n)*scale))) }

// round is one workload round after set-up.
type round struct {
	// sys is the system the round built; it stays referenced until the
	// live heap has been read.
	sys *node.System
	// run executes the round's simulated work: the timed part.
	run func() error
	// report fills the outcome from what run left behind, after timing.
	report func(o *outcome)
}

// outcome is what one round reports.
type outcome struct {
	// Operations are simulated messages, or the one campaign run on
	// paper_campaign. Offered minus delivered minus failed is the count
	// that went missing.
	offered, delivered, failed int
	// problems names every failed output check of the round.
	problems []string
	// digest hashes every simulated count the round produced; rounds with
	// the same seed must agree on its sum.
	digest hash.Hash64
	// values holds the round's simulated per-layer values by metric name.
	values map[string]float64
}

func newOutcome() *outcome { return &outcome{digest: fnv.New64a(), values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// mix folds fixed-size values into the determinism digest. Writing to a
// hash cannot fail, so an error means data is not fixed-size: a bug.
func (o *outcome) mix(data any) {
	if err := binary.Write(o.digest, binary.LittleEndian, data); err != nil {
		panic(err)
	}
}

// workload is one benchmark workload.
type workload struct {
	name string
	// setup builds a round's system: the part setup_s times.
	setup func(p params) (*round, error)
	// seedFor gives round r's seed under the run seed.
	seedFor func(seed uint64, r int) uint64
	// messages is false for paper_campaign, whose systems stay inside the
	// measurement campaign: it has no message count and no fabric counters.
	messages bool
}

func sameSeed(seed uint64, _ int) uint64     { return seed }
func seedPerRound(seed uint64, r int) uint64 { return seed + uint64(r) }

var workloads = []*workload{
	{name: "osu_mr", setup: osuRound, seedFor: sameSeed, messages: true},
	{name: "incast_oversub", setup: incastRound, seedFor: sameSeed, messages: true},
	{name: "openloop_tenants", setup: openloopRound, seedFor: sameSeed, messages: true},
	{name: "paper_campaign", setup: campaignRound, seedFor: seedPerRound},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func traceCap(p params) int {
	if p.traced {
		return traceCapacity
	}
	return 0
}

// absErrPct is |got - want| as a percentage of want.
func absErrPct(got, want float64) float64 { return math.Abs(got-want) / want * 100 }

// osuRound: the paper's §6 message rate over MPICH -> UCP -> UCT on the
// calibrated two-node switched system.
func osuRound(p params) (*round, error) {
	cfg := config.TX2CX4(config.NoiseOff, p.seed, true)
	cfg.TraceCapacity = traceCap(p)
	sys := node.NewSystem(cfg, 2)
	var res *osu.MessageRateResult
	return &round{
		sys: sys,
		run: func() error {
			res = osu.MessageRate(sys, osu.Options{Windows: scaled(osuWindows, p.scale)})
			return nil
		},
		report: func(o *outcome) {
			s, r := res.Sender, res.Receiver
			o.offered = int(s.Stats.Isends)
			o.delivered = int(r.Worker.Stats.RecvCompletions + r.Worker.Stats.UnexpectedMsgs)
			o.failed = int(s.Worker.Stats.SendFailures + r.Worker.Stats.RecvFailures)
			if n := s.Worker.Uct.Stats.ErrorCQEs + r.Worker.Uct.Stats.ErrorCQEs; n > 0 {
				o.problem("%d error CQEs", n)
			}
			msgs := float64(o.delivered)
			o.set("uct.busy_posts_per_msg", float64(s.Worker.Uct.Stats.BusyPosts+r.Worker.Uct.Stats.BusyPosts)/msgs)
			o.set("uct.empty_polls_per_msg", float64(s.Worker.Uct.Stats.EmptyPolls+r.Worker.Uct.Stats.EmptyPolls)/msgs)
			o.set("ucp.unexpected_frac", float64(r.Worker.Stats.UnexpectedMsgs)/msgs)
			o.set("paper_err_pct", absErrPct(res.MeanInjNs, config.TabObsOverallInj))
			o.mix([]uint64{math.Float64bits(res.MeanInjNs), res.BusyPosts})
		},
	}, nil
}

// incastRound: seven 4 KiB bcopy put_bw senders into one receiver whose
// PCIe link, not the wire, is the bottleneck, with a bounded rx budget.
func incastRound(p params) (*round, error) {
	cfg := config.TX2CX4(config.NoiseOff, p.seed, true)
	cfg.Topology = topo.Spec{Kind: topo.FatTree}
	cfg.NICRxBudget = incastRxBudget
	cfg.TraceCapacity = traceCap(p)
	sys := node.NewSystem(cfg, incastSenders+1)
	opt := perftest.Options{
		MsgSize: incastMsgSize,
		Warmup:  scaled(incastWarmup, p.scale),
		Iters:   scaled(incastIters, p.scale),
	}
	var res *perftest.OversubscribedResult
	return &round{
		sys: sys,
		run: func() error {
			res = perftest.OversubscribedPutBw(sys, incastSenders, opt)
			return nil
		},
		report: func(o *outcome) {
			o.offered = incastSenders * (opt.Warmup + opt.Iters)
			o.delivered = int(sys.Nodes[0].NIC.Stats().RxFrames)
			for _, nd := range sys.Nodes {
				st := nd.NIC.Stats()
				o.failed += int(st.RetryExhausted + st.Flushed)
			}
			// Under saturation each sender posts once per Senders x the
			// receiver's PCIe write cycle.
			interval := res.Elapsed.Ns() / float64(opt.Iters)
			o.set("model_err_pct", absErrPct(interval, float64(incastSenders)*res.ModelCycleNs))
			o.mix(res.Elapsed)
		},
	}, nil
}

// openloopRound: the two-tenant open-loop spec through internal/workload.
func openloopRound(p params) (*round, error) {
	spec, err := wl.ParseSpec(openloopYAML)
	if err != nil {
		return nil, err
	}
	if p.scale != 1 {
		for i := range spec.Cohorts {
			c := &spec.Cohorts[i]
			c.Duration = scaleTime(c.Duration, p.scale)
			for j := range c.Envelope {
				c.Envelope[j].From = scaleTime(c.Envelope[j].From, p.scale)
				c.Envelope[j].To = scaleTime(c.Envelope[j].To, p.scale)
			}
		}
	}
	cfg := spec.BuildConfig(config.NoiseOff, p.seed)
	cfg.TraceCapacity = traceCap(p)
	sys := node.NewSystem(cfg, spec.Nodes)
	var res *wl.Result
	return &round{
		sys: sys,
		run: func() error {
			res, err = wl.Run(spec, sys, wl.RunOpt{})
			return err
		},
		report: func(o *outcome) {
			var lat stats.Sample
			var bytes uint64
			for i := range res.Cohorts {
				c := &res.Cohorts[i]
				o.offered += c.Offered
				o.delivered += c.Delivered
				o.failed += c.Failed
				bytes += c.Bytes
				for _, v := range c.Latency.Values() {
					lat.Add(v)
				}
				o.mix([]int64{int64(c.Offered), int64(c.Delivered), int64(c.Bytes), int64(c.LastDone)})
			}
			o.set("workload.clients", float64(spec.TotalClients()))
			o.set("workload.offered", float64(o.offered))
			if res.Elapsed > 0 {
				o.set("workload.goodput_mbs", float64(bytes)/res.Elapsed.Seconds()/1e6)
			}
			if lat.N() > 0 {
				o.set("workload.observed_lat_p50_ns", lat.Quantile(0.5))
				o.set("workload.observed_lat_p99_ns", lat.Quantile(0.99))
			}
		},
	}, nil
}

func scaleTime(t units.Time, scale float64) units.Time {
	return units.Time(math.Round(float64(t) * scale))
}

// campaignRound: the 27-task measurement campaign behind
// breakband.Reproduce, serial, with noise. Set-up is one system of the
// campaign's config: the unit the campaign pays once per task.
func campaignRound(p params) (*round, error) {
	mk := func() *config.Config { return config.TX2CX4(config.NoiseOn, p.seed, true) }
	sys := node.NewSystem(mk(), 2)
	var res *measure.Result
	return &round{
		sys: sys,
		run: func() error {
			res = measure.Run(mk, measure.Opts{
				Samples:     scaled(campaignSamples, p.scale),
				Windows:     scaled(campaignWindows, p.scale),
				Parallelism: 1,
			})
			return nil
		},
		report: func(o *outcome) {
			o.offered, o.delivered = 1, 1
			for _, v := range res.Validations() {
				o.set(validationPrefix+v.Name, v.ErrPct)
			}
			obs := res.Observed
			worst := 0.0
			for _, q := range [][2]float64{
				{obs.LLPInjection.Mean, config.TabObsLLPInjection},
				{obs.LLPLatencyNs, config.TabObsLLPLatency},
				{obs.OverallInjectionNs, config.TabObsOverallInj},
				{obs.E2ELatencyNs, config.TabObsE2ELatency},
			} {
				worst = max(worst, absErrPct(q[0], q[1]))
				o.mix(q[0])
			}
			o.set("paper_err_pct", worst)
			c := res.Components
			for _, t := range []struct {
				name string
				v    float64
			}{
				{"table1.llp_post_ns", c.LLPPost},
				{"table1.llp_prog_ns", c.LLPProg},
				{"table1.pcie_ns", c.PCIe},
				{"table1.wire_ns", c.Wire},
				{"table1.switch_ns", c.Switch},
				{"table1.rc_to_mem_ns", c.RCToMem8},
				{"table1.hlp_post_mpich_ns", c.HLPPostMPICH},
				{"table1.hlp_post_ucp_ns", c.HLPPostUCP},
			} {
				o.set(t.name, t.v)
				o.mix(t.v)
			}
		},
	}, nil
}

// observe reads the fabric-side counters of a message round's system: the
// per-layer simulated values, the pool-drain checks and the digest.
func observe(sys *node.System, o *outcome) {
	msgs := float64(o.delivered)
	var frames, retx, rnrNaks, seqNaks, ackTimeouts, tlps, records uint64
	var upPendMax, rxHeldMax int
	for _, nd := range sys.Nodes {
		st := nd.NIC.Stats()
		o.mix(&st)
		frames += st.TxFrames + st.Retransmits
		retx += st.Retransmits
		rnrNaks += st.RNRNaksSent
		seqNaks += st.SeqNaksSent
		ackTimeouts += st.AckTimeouts
		down, up := nd.Link.Sent()
		tlps += down + up
		records += uint64(nd.Tap.Len())
		_, pend := nd.Link.MaxPend()
		upPendMax = max(upPendMax, pend)
		rxHeldMax = max(rxHeldMax, nd.NIC.RxHeldMax())
		if t, d := nd.Link.InUsePackets(); t != 0 || d != 0 {
			o.problem("node%d PCIe pools not drained: %d TLPs, %d DLLPs", nd.ID, t, d)
		}
	}
	if n := sys.Net.InUseFrames(); n != 0 {
		o.problem("fabric frame pool not drained: %d frames", n)
	}
	k := sys.K
	o.mix([]uint64{k.Fired(), uint64(k.Now())})

	o.set("sim.events_per_msg", float64(k.Fired())/msgs)
	o.set("analyzer.records_retained", float64(records))
	o.set("pcie.link_records_per_msg", float64(tlps)/msgs)
	o.set("pcie.up_pend_max", float64(upPendMax))
	o.set("nic.frames_per_msg", float64(frames)/msgs)
	o.set("nic.retransmit_frac", ratio(float64(retx), float64(frames)))
	o.set("nic.rnr_naks_per_kmsg", float64(rnrNaks)/msgs*1000)
	o.set("nic.seq_naks", float64(seqNaks))
	o.set("nic.ack_timeouts", float64(ackTimeouts))
	o.set("nic.rx_held_max", float64(rxHeldMax))

	t := sys.Topo()
	var busiest units.Time
	var dropped uint64
	for _, ps := range t.PortStats() {
		busiest = max(busiest, ps.Busy)
		dropped += ps.Dropped
	}
	o.set("topo.hot_port_util_pct", ratio(float64(busiest), float64(k.Now()))*100)
	o.set("topo.max_queue", float64(t.MaxSwitchQueue()))
	o.set("topo.credit_stalls_per_kmsg", float64(t.CreditStalls())/msgs*1000)
	o.set("topo.dropped", float64(dropped))

	if rep := perftest.StallReport(sys); rep != nil {
		sh := rep.Shares()
		for i, name := range []string{"ideal", "queue", "stall", "pend", "backoff", "waste"} {
			o.set("attr."+name+"_pct", sh[i]*100)
		}
		o.set("attr.residual_ps", float64(rep.MaxResidual()))
	}
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
