package breakband

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/core/breakdown"
	"breakband/internal/core/whatif"
	"breakband/internal/measure"
	"breakband/internal/node"
	"breakband/internal/osu"
	"breakband/internal/perftest"
	"breakband/internal/uct"
)

// This file regenerates every table and figure of the paper's evaluation as
// testing.B benchmarks (DESIGN.md §4 maps each artifact to its bench).
// Figures derived purely from the measured component table reuse one shared
// measurement campaign; benches that exercise live workloads run them under
// b.N control. Custom b.ReportMetric units carry the quantities the paper
// reports (ns per message, model error, percentage speedups).

var benchCampaign *measure.Result

func campaignForBench(b *testing.B) *measure.Result {
	b.Helper()
	if benchCampaign == nil {
		mk := func() *config.Config { return config.TX2CX4(config.NoiseOff, 1, true) }
		benchCampaign = measure.Run(mk, measure.Opts{Samples: 200, Windows: 10})
	}
	return benchCampaign
}

func mkSys() *node.System {
	return node.NewSystem(config.TX2CX4(config.NoiseOff, 1, true), 2)
}

// BenchmarkTable1Components regenerates the measured component table
// (Table 1) and reports a few headline rows as metrics.
func BenchmarkTable1Components(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mk := func() *config.Config { return config.TX2CX4(config.NoiseOff, 1, true) }
		res := measure.Run(mk, measure.Opts{Samples: 100, Windows: 5})
		b.ReportMetric(res.Components.LLPPost, "llp_post_ns")
		b.ReportMetric(res.Components.PCIe, "pcie_ns")
		b.ReportMetric(res.Components.RCToMem8, "rc_to_mem_ns")
	}
}

// BenchmarkFig4LLPPost regenerates the LLP_post stage breakdown.
func BenchmarkFig4LLPPost(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		bd := breakdown.Fig4LLPPost(c)
		b.ReportMetric(bd.Part("PIO copy").Pct, "pio_pct")
		b.ReportMetric(bd.TotalNs, "llp_post_ns")
	}
}

// BenchmarkFig6Trace captures the downstream PCIe trace of put_bw.
func BenchmarkFig6Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := mkSys()
		tap := sys.Nodes[0].AttachTap()
		perftest.PutBw(sys, perftest.Options{Iters: 256, Warmup: 300})
		recs := tap.Records()
		b.ReportMetric(float64(len(recs)), "trace_records")
		sys.Shutdown()
	}
}

// BenchmarkFig7InjectionDist regenerates the observed injection-overhead
// distribution from analyzer deltas.
func BenchmarkFig7InjectionDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunPutBw(Options{}, 2000)
		b.ReportMetric(res.InjDist.Mean, "mean_ns")
		b.ReportMetric(res.InjDist.Median, "median_ns")
		b.ReportMetric(res.InjDist.Std, "std_ns")
	}
}

// BenchmarkFig8InjectionBreakdown regenerates the LLP injection breakdown.
func BenchmarkFig8InjectionBreakdown(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		bd := breakdown.Fig8Injection(c)
		b.ReportMetric(bd.Part("LLP_post").Pct, "llp_post_pct")
		b.ReportMetric(bd.TotalNs, "inj_ns")
	}
}

// BenchmarkInjectionValidation reruns the §4.2 model-vs-observed check
// (paper: 295.73 modeled vs 282.33 observed, within 5%).
func BenchmarkInjectionValidation(b *testing.B) {
	res := campaignForBench(b)
	for i := 0; i < b.N; i++ {
		v := res.Validations()[0]
		b.ReportMetric(v.ModeledNs, "modeled_ns")
		b.ReportMetric(v.ObservedNs, "observed_ns")
		b.ReportMetric(v.ErrPct, "err_pct")
	}
}

// BenchmarkFig10LatencyBreakdown regenerates the LLP latency breakdown.
func BenchmarkFig10LatencyBreakdown(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		bd := breakdown.Fig10Latency(c)
		b.ReportMetric(bd.Part("Wire").Pct, "wire_pct")
		b.ReportMetric(bd.Part("RC-to-MEM(8B)").Pct, "rc_to_mem_pct")
	}
}

// BenchmarkLatencyValidation reruns the §4.3 check (paper: 1135.8 modeled vs
// 1190.25 observed).
func BenchmarkLatencyValidation(b *testing.B) {
	res := campaignForBench(b)
	for i := 0; i < b.N; i++ {
		v := res.Validations()[1]
		b.ReportMetric(v.ModeledNs, "modeled_ns")
		b.ReportMetric(v.ObservedNs, "observed_ns")
		b.ReportMetric(v.ErrPct, "err_pct")
	}
}

// BenchmarkFig11HLP regenerates the MPICH/UCP split of MPI_Isend and the
// receive-side MPI_Wait.
func BenchmarkFig11HLP(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		bars := breakdown.Fig11HLP(c)
		b.ReportMetric(bars[0].Part("MPICH").Pct, "isend_mpich_pct")
		b.ReportMetric(bars[1].Part("MPICH").Pct, "wait_mpich_pct")
	}
}

// BenchmarkFig12OverallInjection regenerates the overall injection
// breakdown.
func BenchmarkFig12OverallInjection(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		bd := breakdown.Fig12OverallInjection(c)
		b.ReportMetric(bd.Part("Post").Pct, "post_pct")
		b.ReportMetric(bd.TotalNs, "inj_ns")
	}
}

// BenchmarkOverallInjectionValidation reruns the §6 check (paper: 264.97
// modeled vs 263.91 observed, within 1%).
func BenchmarkOverallInjectionValidation(b *testing.B) {
	res := campaignForBench(b)
	for i := 0; i < b.N; i++ {
		v := res.Validations()[2]
		b.ReportMetric(v.ModeledNs, "modeled_ns")
		b.ReportMetric(v.ObservedNs, "observed_ns")
		b.ReportMetric(v.ErrPct, "err_pct")
	}
}

// BenchmarkFig13E2ELatency regenerates the end-to-end latency breakdown.
func BenchmarkFig13E2ELatency(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		bd := breakdown.Fig13E2ELatency(c)
		b.ReportMetric(bd.TotalNs, "e2e_ns")
		b.ReportMetric(bd.Part("HLP_rx_prog").Pct, "hlp_rx_prog_pct")
	}
}

// BenchmarkE2ELatencyValidation reruns the §6 check (paper: 1387.02 modeled
// vs 1336 observed, within 4%).
func BenchmarkE2ELatencyValidation(b *testing.B) {
	res := campaignForBench(b)
	for i := 0; i < b.N; i++ {
		v := res.Validations()[3]
		b.ReportMetric(v.ModeledNs, "modeled_ns")
		b.ReportMetric(v.ObservedNs, "observed_ns")
		b.ReportMetric(v.ErrPct, "err_pct")
	}
}

// BenchmarkFig14HLPvsLLP regenerates the protocol-level splits.
func BenchmarkFig14HLPvsLLP(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		bars := breakdown.Fig14HLPvsLLP(c)
		b.ReportMetric(bars[0].Part("LLP").Pct, "init_llp_pct")
		b.ReportMetric(bars[2].Part("HLP").Pct, "rx_hlp_pct")
	}
}

// BenchmarkFig15HighLevel regenerates the CPU / I/O / Network split.
func BenchmarkFig15HighLevel(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		bars := breakdown.Fig15HighLevel(c)
		b.ReportMetric(bars[0].Part("Network").Pct, "network_pct")
		b.ReportMetric(bars[0].Part("I/O").Pct, "io_pct")
		b.ReportMetric(bars[0].Part("CPU").Pct, "cpu_pct")
	}
}

// BenchmarkFig16OnNode regenerates the initiator/target on-node split.
func BenchmarkFig16OnNode(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		bars := breakdown.Fig16OnNode(c)
		b.ReportMetric(bars[0].Part("Target").Pct, "target_pct")
	}
}

// BenchmarkFig17aCPUInjection sweeps CPU reductions against injection.
func BenchmarkFig17aCPUInjection(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		series := whatif.Fig17aCPUInjection(c)
		b.ReportMetric(series[1].At(0.90), "llp_90_speedup_pct")
		b.ReportMetric(series[0].At(0.20), "hlp_20_speedup_pct")
	}
}

// BenchmarkFig17bCPULatency sweeps CPU reductions against latency.
func BenchmarkFig17bCPULatency(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		series := whatif.Fig17bCPULatency(c)
		b.ReportMetric(series[4].At(0.84), "pio_84_speedup_pct")
	}
}

// BenchmarkFig17cIOLatency sweeps I/O reductions against latency.
func BenchmarkFig17cIOLatency(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		series := whatif.Fig17cIOLatency(c)
		b.ReportMetric(series[0].At(0.50), "integrated_nic_50_pct")
	}
}

// BenchmarkFig17dNetworkLatency sweeps network reductions against latency.
func BenchmarkFig17dNetworkLatency(b *testing.B) {
	c := campaignForBench(b).Components
	for i := 0; i < b.N; i++ {
		series := whatif.Fig17dNetworkLatency(c)
		b.ReportMetric(series[1].At(0.70), "switch_70_pct")
	}
}

// BenchmarkAblationPostModes compares the PIO+inline fast path against the
// DoorBell+DMA paths (DESIGN.md X1; exercises MRd/CplD).
func BenchmarkAblationPostModes(b *testing.B) {
	for _, mode := range []uct.PostMode{uct.PIOInline, uct.DoorbellInline, uct.DoorbellGather} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := mkSys()
				res := perftest.AmLat(sys, perftest.Options{Iters: 300, Mode: mode})
				b.ReportMetric(res.AdjustedNs, "latency_ns")
				sys.Shutdown()
			}
		})
	}
}

// BenchmarkAblationUnsignaled sweeps the unsignaled-completion period
// (DESIGN.md X2).
func BenchmarkAblationUnsignaled(b *testing.B) {
	for _, c := range []int{1, 16, 64} {
		b.Run("c="+itoa(c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.TX2CX4(config.NoiseOff, 1, true)
				cfg.SignalPeriod = c
				sys := node.NewSystem(cfg, 2)
				res := osu.MessageRate(sys, osu.Options{Windows: 8})
				b.ReportMetric(res.MeanInjNs, "ns_per_msg")
				sys.Shutdown()
			}
		})
	}
}

// BenchmarkAblationMultiCore scales concurrent injecting cores (DESIGN.md
// X3; exercises PCIe credit flow control and link serialization).
func BenchmarkAblationMultiCore(b *testing.B) {
	for _, cores := range []int{1, 8, 32} {
		b.Run("cores="+itoa(cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := mkSys()
				res := perftest.MultiPutBw(sys, cores, perftest.Options{Iters: 800})
				b.ReportMetric(res.PerMsgNs, "agg_ns_per_msg")
				b.ReportMetric(float64(res.LinkBlocked), "credit_stalls")
				sys.Shutdown()
			}
		})
	}
}

// BenchmarkAblationSwitch compares switched and direct topologies
// (DESIGN.md X4).
func BenchmarkAblationSwitch(b *testing.B) {
	for _, direct := range []bool{false, true} {
		name := "switched"
		if direct {
			name = "direct"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := node.NewSystem(config.TX2CX4(config.NoiseOff, 1, !direct), 2)
				res := perftest.AmLat(sys, perftest.Options{Iters: 300})
				b.ReportMetric(res.AdjustedNs, "latency_ns")
				sys.Shutdown()
			}
		})
	}
}

// BenchmarkAblationSizeSweep measures latency across message sizes
// (DESIGN.md X5: the paper's §1 claim that the software share collapses as
// messages grow).
func BenchmarkAblationSizeSweep(b *testing.B) {
	for _, size := range []int{8, 256, 4096} {
		b.Run("size="+itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := perftest.LatencySizeSweep(mkSys, []int{size}, 200, 1)
				b.ReportMetric(pts[0].LatencyNs, "latency_ns")
				b.ReportMetric(pts[0].SoftwarePct, "software_pct")
			}
		})
	}
}

// BenchmarkAblationPollWindow sweeps the post window against the §4.2 bound
// p >= gen_completion / LLP_post (DESIGN.md X6).
func BenchmarkAblationPollWindow(b *testing.B) {
	for _, w := range []int{1, 8, 32} {
		b.Run("p="+itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := mkSys()
				res := perftest.WindowedPutBw(sys, w, 1024)
				b.ReportMetric(res.PerMsgNs, "ns_per_msg")
				sys.Shutdown()
			}
		})
	}
}

// BenchmarkSimCheckWhatIf verifies a Figure-17 prediction against the live
// simulator per iteration (paper §7's simulator-agreement claim).
func BenchmarkSimCheckWhatIf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chk := SimulateOptimization(Options{}, CompIO, Latency, 50)
		b.ReportMetric(chk.PredictedPct, "predicted_pct")
		b.ReportMetric(chk.SimulatedPct, "simulated_pct")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
