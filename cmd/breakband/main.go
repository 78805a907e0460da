// Command breakband regenerates every table and figure of the paper's
// evaluation from the calibrated simulation, validates the analytical models
// against observed benchmark performance, and runs the what-if and ablation
// studies.
//
// Usage:
//
//	breakband [flags] <command>
//
// Commands:
//
//	table1    measured component table vs the paper's Table 1
//	validate  the four model-vs-observed comparisons (§4.2, §4.3, §6)
//	fig4 fig6 fig7 fig8 fig10 fig11 fig12 fig13 fig14 fig15 fig16
//	fig17 fig17a fig17b fig17c fig17d
//	whatif    the §7 optimization scenarios with likelihood notes
//	simcheck  verify Figure-17 predictions against live simulation
//	ablate    post-mode / unsignaled / multicore / switch ablations
//	bench     raw benchmark numbers (put_bw, am_lat, OSU mr, OSU latency)
//	all       everything above, in order
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"breakband"
	"breakband/internal/campaign"
	"breakband/internal/config"
	"breakband/internal/core/whatif"
	"breakband/internal/node"
	"breakband/internal/osu"
	"breakband/internal/perftest"
	"breakband/internal/report"
	"breakband/internal/stats"
	"breakband/internal/uct"
)

var (
	flagNoise    = flag.Bool("noise", false, "enable the stochastic timing model")
	flagSeed     = flag.Uint64("seed", 1, "random seed (with -noise)")
	flagDirect   = flag.Bool("direct", false, "cable the NICs back to back (no switch)")
	flagSamples  = flag.Int("samples", 400, "samples per measured component (>=100)")
	flagWindows  = flag.Int("windows", 20, "message-rate windows, at least 1")
	flagFig7N    = flag.Int("fig7-iters", 20000, "put_bw iterations for the Figure-7 histogram, at least 1")
	flagParallel = flag.Int("parallel", 0, "campaign/sweep worker pool (0 = GOMAXPROCS, 1 = serial)")
)

func opts() breakband.Options {
	return breakband.Options{
		Noise:       *flagNoise,
		Seed:        *flagSeed,
		DirectCable: *flagDirect,
		Samples:     *flagSamples,
		Windows:     *flagWindows,
		Parallelism: *flagParallel,
	}
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: breakband [flags] <command>\nrun 'go doc breakband/cmd/breakband' for commands\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkFlags(); err != nil {
		fmt.Fprintln(os.Stderr, "breakband:", err)
		os.Exit(2)
	}
	cmd := strings.ToLower(flag.Arg(0))
	switch cmd {
	case "table1":
		res := breakband.Reproduce(opts())
		fmt.Print(res.Table1())
	case "validate":
		res := breakband.Reproduce(opts())
		fmt.Print(res.RenderValidations())
	case "fig6":
		fig6()
	case "fig7":
		fig7()
	case "fig4", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig17a", "fig17b", "fig17c", "fig17d":
		res := breakband.Reproduce(opts())
		fmt.Print(res.Figure(cmd))
	case "whatif":
		res := breakband.Reproduce(opts())
		for _, opt := range res.WhatIf() {
			fmt.Printf("%s [%s]\n  likelihood: %s\n  %s\n  curve: %s\n\n",
				opt.Name, opt.Target, opt.Likelihood, opt.Discussion, opt.Series)
		}
	case "simcheck":
		simcheck()
	case "ablate":
		ablate()
	case "bench":
		bench()
	case "csv":
		exportCSV()
	case "all":
		res := breakband.Reproduce(opts())
		fmt.Print(res.Table1())
		fmt.Println()
		fmt.Print(res.RenderValidations())
		fmt.Println()
		fig6()
		fmt.Println()
		fig7()
		for _, f := range []string{"fig4", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"} {
			fmt.Printf("\n--- %s ---\n%s", f, res.Figure(f))
		}
		fmt.Println()
		simcheck()
		fmt.Println()
		ablate()
	default:
		fmt.Fprintf(os.Stderr, "breakband: unknown command %q\n", cmd)
		os.Exit(2)
	}
}

// checkFlags rejects flag values the library would silently replace with
// its defaults or turn into an empty result.
func checkFlags() error {
	switch {
	case *flagSamples < 100:
		return fmt.Errorf("-samples %d: the paper's methodology needs at least 100", *flagSamples)
	case *flagWindows < 1:
		return fmt.Errorf("-windows %d: a message-rate run needs at least 1 window", *flagWindows)
	case *flagFig7N < 1:
		return fmt.Errorf("-fig7-iters %d: the histogram needs at least 1 iteration", *flagFig7N)
	case *flagParallel < 0:
		return fmt.Errorf("-parallel %d is negative (0 selects GOMAXPROCS)", *flagParallel)
	}
	return nil
}

// fig6 prints a PCIe trace snippet of downstream transactions during put_bw,
// like the paper's Figure 6.
func fig6() {
	sys := opts().NewSystem()
	defer sys.Shutdown()
	tap := sys.Nodes[0].AttachTap()
	// Warmup past the transmit-queue depth so the trace shows the busy-post
	// steady state the paper's Figure 6 captures.
	perftest.PutBw(sys, perftest.Options{Iters: 64, Warmup: 300})
	recs := tap.TLPs(pcieDown(), pcieMWr(), 64, 64)
	fmt.Println("Fig 6: PCIe trace of downstream transactions (put_bw, 8B payload PIO posts)")
	fmt.Printf("%-6s %-14s %-6s %-9s %-10s\n", "#", "TIME", "KIND", "PAYLOAD", "DELTA(ns)")
	for i, r := range recs {
		if i >= 12 {
			fmt.Printf("... (%d more)\n", len(recs)-i)
			break
		}
		delta := "-"
		if i > 0 {
			delta = fmt.Sprintf("%.2f", (r.At - recs[i-1].At).Ns())
		}
		fmt.Printf("%-6d %-14s %-6s %-9d %-10s\n", i, r.At, r.Kind(), r.Payload, delta)
	}
}

// fig7 renders the observed injection-overhead distribution histogram.
func fig7() {
	o := opts()
	res := breakband.RunPutBw(o, *flagFig7N)
	s := res.InjDist
	fmt.Println("Fig 7: distribution of the observed injection overhead (ns)")
	fmt.Printf("Mean: %.2f  Median: %.2f  Min: %.2f  Max: %.2f  Std dev: %.4f  (n=%d)\n",
		s.Mean, s.Median, s.Min, s.Max, s.Std, s.N)
	fmt.Println(breakband.Fig7PaperLine())
	h := stats.NewHistogram(150, 500, 28)
	h.FromSample(res.InjSample)
	fmt.Print(report.HistogramText(h, 50))
}

// simcheck verifies the §7 claim that simulated optimizations match the
// analytical linear speedups.
func simcheck() {
	fmt.Println("Simulation-backed what-if verification (paper §7: a system simulator")
	fmt.Println("reproduces the analytical linear speedups):")
	o := opts()
	for _, c := range []struct {
		comp breakband.Component
		m    breakband.Metric
		r    int
	}{
		{breakband.CompPIO, breakband.Injection, 84},
		{breakband.CompPIO, breakband.Latency, 84},
		{breakband.CompIO, breakband.Latency, 50},
		{breakband.CompSwitch, breakband.Latency, 70},
		{breakband.CompWire, breakband.Latency, 50},
		{breakband.CompHLPPost, breakband.Injection, 20},
		{breakband.CompRCToMem, breakband.Latency, 50},
	} {
		fmt.Println("  " + breakband.SimulateOptimization(o, c.comp, c.m, c.r).String())
	}
}

// ablate runs the design-choice ablations from DESIGN.md. Every sweep point
// is an isolated fresh system, so all of them fan out on the -parallel pool
// and print in deterministic order once complete.
func ablate() {
	o := opts()
	par := *flagParallel

	fmt.Println("X1: descriptor-delivery path (am_lat one-way latency, adjusted ns)")
	modes := []uct.PostMode{uct.PIOInline, uct.DoorbellInline, uct.DoorbellGather}
	for i, adj := range campaign.Map(par, modes, func(_ int, mode uct.PostMode) float64 {
		sys := o.NewSystem()
		defer sys.Shutdown()
		return perftest.AmLat(sys, perftest.Options{Iters: 400, Mode: mode}).AdjustedNs
	}) {
		fmt.Printf("  %-17s %8.2f ns\n", modes[i], adj)
	}

	fmt.Println("X2: unsignaled completion period c (OSU message rate, ns/msg)")
	periods := []int{1, 4, 16, 64}
	for i, res := range campaign.Map(par, periods, func(_, c int) *osu.MessageRateResult {
		cfg := config.TX2CX4(noiseLevel(o), seedOf(o), !o.DirectCable)
		cfg.SignalPeriod = c
		sys := systemOf(cfg)
		defer sys.Shutdown()
		return osu.MessageRate(sys, osu.Options{Windows: 12})
	}) {
		fmt.Printf("  c=%-3d %8.2f ns/msg (%d busy posts)\n", periods[i], res.MeanInjNs, res.BusyPosts)
	}

	fmt.Println("X3: multi-core injection (aggregate put_bw; fine-grained communication,")
	fmt.Println("    one QP per core — the paper's strong-scaling limit scenario)")
	coreCounts := []int{1, 2, 4, 8, 16, 32, 64}
	for _, res := range perftest.MultiCoreSweep(o.NewSystem, coreCounts, perftest.Options{Iters: 1500}, par) {
		fmt.Printf("  cores=%-3d %8.2f ns/msg aggregate (%d PCIe credit stalls)\n",
			res.Cores, res.PerMsgNs, res.LinkBlocked)
	}

	fmt.Println("X4: switch vs direct cabling (am_lat, adjusted ns)")
	for i, adj := range campaign.Map(par, []bool{false, true}, func(_ int, direct bool) float64 {
		oo := o
		oo.DirectCable = direct
		sys := oo.NewSystem()
		defer sys.Shutdown()
		return perftest.AmLat(sys, perftest.Options{Iters: 400}).AdjustedNs
	}) {
		name := "switched"
		if i == 1 {
			name = "direct"
		}
		fmt.Printf("  %-9s %8.2f ns\n", name, adj)
	}

	fmt.Println("X5: message-size sweep (paper §1: software share collapses with size)")
	mkSys := func() *node.System {
		return node.NewSystem(config.TX2CX4(noiseLevel(o), seedOf(o), !o.DirectCable), 2)
	}
	for _, pt := range perftest.LatencySizeSweep(mkSys, []int{8, 32, 256, 1024, 4096}, 300, par) {
		fmt.Printf("  %5dB %9.2f ns one-way (software share %.1f%%)\n",
			pt.Bytes, pt.LatencyNs, pt.SoftwarePct)
	}

	fmt.Println("X6: poll window p (paper §4.2 bound p >= gen_completion/LLP_post = 8)")
	for _, res := range perftest.WindowedSweep(mkSys, []int{1, 2, 4, 8, 16, 32}, 2048, par) {
		fmt.Printf("  p=%-3d %9.2f ns/msg\n", res.Window, res.PerMsgNs)
	}

	fmt.Println("Model ablation: minimum poll period p (paper §4.2 lower bound)")
	c := breakband.PaperComponents()
	fmt.Printf("  gen_completion=%.2f ns, LLP_post=%.2f ns -> p >= %d (perftest polls every 16)\n",
		c.GenCompletion(), c.LLPPost, c.MinPollPeriod())

	fmt.Println("Future system (combined §7 optimizations: integrated NIC, fast PIO, -20% software)")
	s, lat := whatif.FutureSystem(c)
	fmt.Printf("  projected speedup %.2f%% -> %.2f ns end-to-end latency\n", s, lat)
}

// bench prints the raw benchmark quartet.
func bench() {
	o := opts()
	pb := breakband.RunPutBw(o, 4000)
	fmt.Printf("put_bw:      %.2f ns/msg (%.0f msg/s), busy posts %d\n", pb.MeanInjNs, pb.MsgRate, pb.BusyPosts)
	al := breakband.RunAmLat(o, 1000)
	fmt.Printf("am_lat:      %.2f ns reported, %.2f ns adjusted\n", al.ReportedNs, al.AdjustedNs)
	mr := breakband.RunMessageRate(o, *flagWindows)
	fmt.Printf("osu_mr:      %.2f ns/msg (%.0f msg/s), busy posts %d\n", mr.MeanInjNs, mr.MsgRate, mr.BusyPosts)
	lt := breakband.RunMPILatency(o, 1000)
	fmt.Printf("osu_latency: %.2f ns one-way\n", lt.OneWayNs)
}
