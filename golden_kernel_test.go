package breakband

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"breakband/internal/config"
	"breakband/internal/faults"
	"breakband/internal/measure"
	"breakband/internal/node"
	"breakband/internal/perftest"
	"breakband/internal/stats"
	"breakband/internal/topo"
	"breakband/internal/units"
	"breakband/internal/workload"
)

// TestGoldenKernelOutputs pins the simulation's outputs, bit for bit, at a
// fixed seed across every benchmark family and a reduced measurement
// campaign. The fixture in testdata/golden_kernel.json was captured with the
// pre-optimization kernel (container/heap + one goroutine handoff per
// Sleep); the pooled 4-ary heap, the batched Advance/Sync time advancement,
// and the pooled zero-allocation device datapath must reproduce it exactly —
// same virtual timestamps, same RNG draws, same counters — or an
// optimization changed simulation semantics.
//
// multiput_noiseon was re-captured when per-core jitter streams landed:
// each simulated core now draws from its own stream derived from the
// campaign seed and the core identity (so co-node cores' draws no longer
// depend on event scheduling order), which deliberately changes the NoiseOn
// multi-core draw sequences. Every other entry is pre-rewrite bit-identical.
//
// The incast_* and alltoall_* entries pin the N-node congestion scenarios
// added with the internal/topo layer (PR 4); the pre-existing two-node
// entries were untouched by that change — the two-endpoint path routes
// through topo's calibrated ideal tier, which reproduces the two-endpoint
// model exactly (TestIdealTierMatchesNetwork checks it in closed form).
//
// The incast_* entries were re-captured when receiver-side backpressure
// landed (PR 5): the NIC now defers a delivered frame's release until its
// host-memory write is actually issued on the PCIe link, so under a
// saturating 4 KiB incast the final-hop fabric credits — not an unbounded
// NIC->RC pend queue — absorb the overload and the contended steady state
// deliberately moved from the shared port's wire rate to the receiver's
// PCIe credit round trip. Every two-node entry was verified byte-identical
// before the recapture, which also added the oversub_* keys. The same PR's
// PCIe transaction-ordering fix (nothing passes a blocked posted write;
// non-posted reads keep FIFO) shifted the alltoall_* MaxSwitchQueue stat
// by exactly one — every rate, message and stall number in those entries
// is unchanged — and they were re-captured with it.
//
// The lossy_* and flap_* entries pin the fault-injection / transport-
// reliability layer (PR 7): a Bernoulli-lossy two-node stream recovered by
// PSN sequence checking, ACK timeouts and go-back-N replay, and a fat-tree
// incast that loses a leaf uplink mid-run and fails over via ECMP. Every
// pre-existing entry was verified byte-identical when they were added —
// with no fault schedule the injector is never compiled, the NIC arms no
// timers, and frames carry the same bytes as before.
//
// The chaos_* entries pin the endpoint failure model (PR 8): a seeded
// randomized schedule of wire loss, uplink flaps, NIC crashes and host
// pauses over an 8-node fat-tree, with error CQEs flushing posted work and
// per-request errors propagating through uct/ucp/mpi to the soak's
// invariant checks. Every pre-existing entry was verified byte-identical
// when they were added — endpoint faults only exist when a schedule names
// them, and the soak builds its own system.
//
// alltoall_noiseon was re-captured when the all-to-all moved onto the
// put_bw loop every other closed-loop sender runs (perftest's
// putLoopFrame): a node now counts its one-poll-per-16-posts cadence from
// the start of each phase, so its first measured poll follows its 16th
// measured post, where the old per-node frame kept one post counter across
// warmup and measured rounds (this entry's 10 warmup rounds x 7 peers = 70
// posts put its first measured poll after the 10th). Under NoiseOn that
// shifts the jitter draws against the polls and moves the aggregate rate
// by 0.08%; queue, stalls and msgs are unchanged. Every other entry,
// alltoall_noiseoff included, was verified byte-identical before the
// re-capture.
//
// The chaos_* events= fields count kernel events, so they move whenever
// an event that only recorded a time goes: they were re-captured when an
// untapped PCIe link began to send a TLP's ACK and UpdateFC from one event
// and to reserve the DLLP work nothing reads yet (sim.Kernel.Reserve), and
// again when a switch port began to reserve its txDone and queue the
// frame's arrival at kick (sim.Kernel.AtFor). No other field of any entry
// moved either time.
//
// Refresh (only for intentional semantic changes, never to paper over a
// kernel regression): GOLDEN_UPDATE=1 go test -run TestGoldenKernelOutputs .
func TestGoldenKernelOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden kernel fingerprint in -short mode")
	}
	got := kernelFingerprint()

	path := filepath.Join("testdata", "golden_kernel.json")
	if os.Getenv("GOLDEN_UPDATE") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d entries)", path, len(got))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with GOLDEN_UPDATE=1 to capture): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden fixture: %v", err)
	}

	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s:\n  got  %s\n  want %s", k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: new fingerprint entry missing from fixture (re-capture)", k)
		}
	}
}

// kernelFingerprint runs every benchmark family at a fixed seed in both
// noise modes and renders each output with full float64 round-trip
// precision, so any change to event ordering, virtual timestamps, or RNG
// draw sequences shows up as a diff.
func kernelFingerprint() map[string]string {
	fp := map[string]string{}
	for _, nc := range []struct {
		name  string
		noise bool
	}{{"noiseoff", false}, {"noiseon", true}} {
		opts := Options{Noise: nc.noise, Seed: 7}

		pb := RunPutBw(opts, 300)
		fp["putbw_"+nc.name] = fmt.Sprintf("meaninj=%s busy=%d inj=%s",
			g(pb.MeanInjNs), pb.BusyPosts, summaryString(pb.InjDist))

		al := RunAmLat(opts, 200)
		fp["amlat_"+nc.name] = fmt.Sprintf("reported=%s adjusted=%s rtt=%s",
			g(al.ReportedNs), g(al.AdjustedNs), summaryString(al.RTT))

		mr := RunMessageRate(opts, 5)
		fp["osumr_"+nc.name] = fmt.Sprintf("meaninj=%s busy=%d msgs=%d",
			g(mr.MeanInjNs), mr.BusyPosts, mr.Messages)

		lat := RunMPILatency(opts, 150)
		fp["osulat_"+nc.name] = fmt.Sprintf("oneway=%s rtt=%s",
			g(lat.OneWayNs), summaryString(lat.RTT))

		wsys := opts.NewSystem()
		wr := perftest.WindowedPutBw(wsys, 32, 320)
		wsys.Shutdown()
		fp["windowed_"+nc.name] = fmt.Sprintf("permsg=%s", g(wr.PerMsgNs))

		msys := opts.NewSystem()
		mp := perftest.MultiPutBw(msys, 3, perftest.Options{Iters: 150, Warmup: 30})
		msys.Shutdown()
		fp["multiput_"+nc.name] = fmt.Sprintf("permsg=%s blocked=%d msgs=%d",
			g(mp.PerMsgNs), mp.LinkBlocked, mp.Messages)

		noise := config.NoiseOff
		if nc.noise {
			noise = config.NoiseOn
		}

		// N-node congestion scenarios over the internal/topo layer:
		// 4-sender incast across one shared single-switch port, and
		// the uniform all-to-all matrix over a radix-4 fat-tree.
		icfg := config.TX2CX4(noise, 7, true)
		icfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
		isys := node.NewSystem(icfg, 5)
		ir := perftest.OversubscribedPutBw(isys, 4, perftest.Options{Iters: 150, Warmup: 60, MsgSize: 4096})
		isys.Shutdown()
		fp["incast_"+nc.name] = fmt.Sprintf("persender=%s queue=%d stalls=%d msgs=%d",
			g(ir.PerSenderMsgRate), ir.MaxSwitchQueue, ir.CreditStalls, ir.Messages)

		acfg := config.TX2CX4(noise, 7, true)
		acfg.Topology = topo.Spec{Kind: topo.FatTree}
		asys := node.NewSystem(acfg, 8)
		ar := perftest.AllToAllPutBw(asys, perftest.Options{Iters: 40, Warmup: 10, MsgSize: 1024})
		asys.Shutdown()
		fp["alltoall_"+nc.name] = fmt.Sprintf("agg=%s queue=%d stalls=%d msgs=%d",
			g(ar.AggMsgRate), ar.MaxSwitchQueue, ar.CreditStalls, ar.Messages)

		// Bounded receiver buffering (PR 5): the rx budget is set below
		// the per-link credits so the fingerprint pins the whole RNR
		// NAK / backoff / go-back-N replay machinery, not just the
		// credit-gated path.
		ocfg := config.TX2CX4(noise, 7, true)
		ocfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
		ocfg.NICRxBudget = 8
		osys := node.NewSystem(ocfg, 5)
		or := perftest.OversubscribedPutBw(osys, 4, perftest.Options{Iters: 150, Warmup: 60, MsgSize: 4096})
		osys.Shutdown()
		fp["oversub_"+nc.name] = fmt.Sprintf("persender=%s held=%d pend=%d naks=%d replays=%d stall=%s msgs=%d",
			g(or.PerSenderMsgRate), or.MaxRxHeld, or.MaxUpPend, or.RNRNaks,
			or.Retransmits, g(or.RetryStall.Ns()), or.Messages)

		// Transport reliability under injected faults (PR 7): a lossy
		// two-node stream (Bernoulli drop + corruption, PSN recovery) and
		// the fat-tree flap incast (ECMP failover, timeout replay,
		// restore). Faults-disabled entries above are untouched — with no
		// schedule the injector is never compiled and the NIC never arms a
		// timer.
		lcfg := config.TX2CX4(noise, 7, true)
		lcfg.Faults.DropRate = 0.02
		lcfg.Faults.CorruptRate = 0.02
		lsys := node.NewSystem(lcfg, 2)
		lr := perftest.LossyPutBw(lsys, perftest.Options{Iters: 400, MsgSize: 32})
		lsys.Shutdown()
		fp["lossy_"+nc.name] = fmt.Sprintf("delivered=%d elapsed=%s drops=%d corrupt=%d timeouts=%d naks=%d replays=%d",
			lr.Delivered, g(lr.Elapsed.Ns()), lr.WireDropped, lr.WireCorrupted,
			lr.SenderStats.AckTimeouts, lr.SenderStats.SeqNaksRecv, lr.SenderStats.Retransmits)

		fcfg := config.TX2CX4(noise, 7, true)
		fcfg.Topology = topo.Spec{Kind: topo.FatTree, Radix: 4}
		fcfg.Faults.Flaps = []faults.Flap{{
			Port: "leaf1.up0",
			Down: units.Microseconds(15), Up: units.Microseconds(25),
		}}
		fsys := node.NewSystem(fcfg, 6)
		fr := perftest.FlapIncastPutBw(fsys, 4, perftest.Options{Iters: 150, Warmup: 1, MsgSize: 4096})
		fsys.Shutdown()
		fp["flap_"+nc.name] = fmt.Sprintf("elapsed=%s pre=%s dip=%s post=%s drops=%d timeouts=%d replays=%d",
			g(fr.Elapsed.Ns()), g(fr.PreRate), g(fr.DipRate), g(fr.PostRate),
			fr.WireDropped, fr.AckTimeouts, fr.Retransmits)

		// Endpoint failure + chaos soak (PR 8): a seeded fault schedule
		// (wire loss, uplink flaps, NIC crashes, host pauses) over an
		// 8-node fat-tree with mixed pair traffic. Pins the crash/flush
		// CQE machinery, per-request error propagation, and the soak's
		// deterministic termination point. Faults-free entries above are
		// untouched: endpoint faults only compile when scheduled.
		ccfg := config.TX2CX4(noise, 7, true)
		cr := perftest.ChaosSoak(ccfg, 7, perftest.ChaosOptions{Total: 120})
		delivered := make([]string, len(cr.Pairs))
		for i, p := range cr.Pairs {
			delivered[i] = fmt.Sprintf("%d", p.Delivered)
		}
		fp["chaos_"+nc.name] = fmt.Sprintf("pass=%v delivered=%s events=%d end=%s crashes=%d pauses=%d flaps=%d drops=%d qpfails=%d flushed=%d",
			cr.Passed(), strings.Join(delivered, ","), cr.Events, g(cr.EndTime.Ns()),
			cr.Crashes, cr.Pauses, cr.Flaps, cr.WireDropped, cr.QPFails, cr.FlushedRecvs)

		// Declarative open-loop workloads (PR 10): a compact two-cohort
		// mixed-tenant spec over the 8-node fat-tree pins the per-client
		// RNG streams, the envelope operational time change, every size
		// distribution draw path and the paced continuation injectors —
		// plus the recorded trace bytes, hashed. Pre-existing entries are
		// untouched: the workload layer builds its own systems.
		wspec := goldenWorkloadSpec()
		wlsys := node.NewSystem(wspec.BuildConfig(noise, 7), wspec.Nodes)
		wres, werr := workload.Run(wspec, wlsys, workload.RunOpt{Record: true})
		wlsys.Shutdown()
		if werr != nil {
			panic(fmt.Sprintf("golden workload run: %v", werr))
		}
		parts := make([]string, len(wres.Cohorts))
		for i := range wres.Cohorts {
			c := &wres.Cohorts[i]
			parts[i] = fmt.Sprintf("%s:offered=%d delivered=%d bytes=%d first=%s last=%s lat=%s",
				c.Name, c.Offered, c.Delivered, c.Bytes, g(c.FirstAt.Ns()), g(c.LastDone.Ns()),
				summaryString(c.Latency.Summarize()))
		}
		h := fnv.New64a()
		h.Write(wres.Trace.Encode())
		fp["workload_"+nc.name] = fmt.Sprintf("%s trace=%016x", strings.Join(parts, " | "), h.Sum64())

		mk := func() *config.Config { return config.TX2CX4(noise, 7, true) }
		res := measure.Run(mk, measure.Opts{Samples: 100, Windows: 4, Parallelism: 2})
		fp["campaign_components_"+nc.name] = structFloats(res.Components)
		fp["campaign_observed_"+nc.name] = fmt.Sprintf("inj=%s llplat=%s overall=%s e2e=%s busyperop=%s",
			summaryString(res.Observed.LLPInjection), g(res.Observed.LLPLatencyNs),
			g(res.Observed.OverallInjectionNs), g(res.Observed.E2ELatencyNs), g(res.BusyPerOp))
	}
	return fp
}

// goldenWorkloadSpec is the fingerprint's two-cohort mixed-tenant workload:
// bursty Weibull small-put traffic with a mid-run surge envelope against a
// steady Gamma stream of lognormal-sized transfers flowing the other way.
func goldenWorkloadSpec() *workload.Spec {
	return &workload.Spec{
		Name:     "golden-mixed",
		Nodes:    8,
		Topology: "fattree",
		Cohorts: []workload.Cohort{{
			Name:     "bursty",
			Clients:  24,
			Src:      []int{4, 5, 6, 7},
			Dst:      []int{0, 1},
			Duration: units.Microseconds(120),
			Arrival:  workload.ArrivalSpec{Process: workload.ProcWeibull, Rate: 25e3, Shape: 0.7},
			Size: workload.SizeSpec{Dist: workload.SizeDistChoice, Choices: []workload.SizeChoice{
				{Bytes: 32, Weight: 3}, {Bytes: 256, Weight: 1}}},
			Envelope: []workload.EnvelopeWindow{{
				From: units.Microseconds(40), To: units.Microseconds(80), Factor: 3}},
		}, {
			Name:     "steady",
			Clients:  8,
			Src:      []int{0, 1},
			Dst:      []int{4, 5, 6, 7},
			Start:    units.Microseconds(20),
			Duration: units.Microseconds(80),
			Arrival:  workload.ArrivalSpec{Process: workload.ProcGamma, Rate: 10e3, Shape: 4},
			Size:     workload.SizeSpec{Dist: workload.SizeDistLogNormal, Mean: 1024, CV: 0.5},
		}},
	}
}

// g renders a float64 with shortest round-trip precision.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// summaryString renders a stats.Summary exactly.
func summaryString(s stats.Summary) string {
	return fmt.Sprintf("{n=%d mean=%s std=%s min=%s med=%s max=%s}",
		s.N, g(s.Mean), g(s.Std), g(s.Min), g(s.Median), g(s.Max))
}

// structFloats renders every float64 field of a struct as name=value.
func structFloats(v any) string {
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	out := ""
	for i := 0; i < rv.NumField(); i++ {
		if rt.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += rt.Field(i).Name + "=" + g(rv.Field(i).Float())
	}
	return out
}
