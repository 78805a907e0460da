// Command bbosu mimics the OSU microbenchmarks for the simulated system: the
// message-rate test (osu_mbw_mr style, without the per-window sync, per the
// paper's §6 footnote) and the point-to-point latency test (osu_latency
// style). Their observed values validate the paper's full-stack models.
//
// Usage:
//
//	bbosu [flags] mr|latency
//
// A flag value no run can use exits 2 with one line on stderr before any
// system is built. A run that ends with an error (a request failed, or the
// run stalled with a rank still waiting) exits 1 with one line on stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/osu"
	"breakband/internal/ucp"
)

var (
	flagWindows = flag.Int("windows", 20, "isend windows (mr), at least 1")
	flagWindow  = flag.Int("window", osu.DefaultWindow, "isends per window (mr), a multiple of the signal period")
	flagIters   = flag.Int("iters", 1000, "ping-pong iterations (latency), at least 1")
	flagSize    = flag.Int("size", 8, fmt.Sprintf("message size in bytes, 1 to %d (ucp's eager limit)", ucp.MaxBcopy))
	flagNoise   = flag.Bool("noise", false, "enable the stochastic timing model")
	flagSeed    = flag.Uint64("seed", 1, "random seed")
	flagDirect  = flag.Bool("direct", false, "no switch between the NICs")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bbosu [flags] mr|latency")
		flag.PrintDefaults()
		os.Exit(2)
	}
	noise := config.NoiseOff
	if *flagNoise {
		noise = config.NoiseOn
	}
	cfg := config.TX2CX4(noise, *flagSeed, !*flagDirect)
	if err := checkFlags(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bbosu:", err)
		os.Exit(2)
	}
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()

	switch flag.Arg(0) {
	case "mr":
		res := osu.MessageRate(sys, osu.Options{Windows: *flagWindows, Window: *flagWindow, MsgSize: *flagSize})
		exitOnErr(res.Err)
		fmt.Println(res)
		fmt.Printf("paper model (Equation 2): 264.97 ns/msg; paper observed: %.2f ns/msg\n",
			config.TabObsOverallInj)
	case "latency":
		res := osu.Latency(sys, osu.Options{Iters: *flagIters, MsgSize: *flagSize})
		exitOnErr(res.Err)
		fmt.Println(res)
		fmt.Printf("paper model (§6): %.2f ns; paper observed: %.2f ns\n",
			config.TabE2ELatencyModel, config.TabObsE2ELatency)
	default:
		fmt.Fprintf(os.Stderr, "bbosu: unknown test %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

// exitOnErr ends a run that failed or stalled: one line on stderr, exit
// status 1.
func exitOnErr(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbosu: %s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}
}

// checkFlags rejects flag values no run can use: a count below 1 (osu reads
// 0 as its default), a window MPI_Waitall would spin on forever (not a
// multiple of cfg's signal period), a message the eager path cannot send.
func checkFlags(cfg *config.Config) error {
	switch {
	case *flagWindows < 1:
		return fmt.Errorf("-windows %d: a run needs at least 1 window", *flagWindows)
	case *flagWindow < 1 || *flagWindow%cfg.SignalPeriod != 0:
		return fmt.Errorf("-window %d: need a positive multiple of the signal period %d", *flagWindow, cfg.SignalPeriod)
	case *flagIters < 1:
		return fmt.Errorf("-iters %d: a run needs at least 1 iteration", *flagIters)
	case *flagSize < 1 || *flagSize > ucp.MaxBcopy:
		return fmt.Errorf("-size %d outside [1, %d]", *flagSize, ucp.MaxBcopy)
	}
	return nil
}
