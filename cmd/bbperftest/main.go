// Command bbperftest mimics ucx_perftest for the simulated system: the
// put_bw injection-rate test and the am_lat ping-pong latency test the paper
// drives its §4 analysis with, plus the N-node congestion scenarios opened
// by the internal/topo topology layer.
//
// Usage:
//
//	bbperftest [flags] put_bw|am_lat|multi|sweep|incast|alltoall|saturate|lossy|flap|chaos|workload
//
// Examples:
//
//	bbperftest put_bw                 # single-core RDMA-write injection
//	bbperftest -iters 5000 am_lat     # send-receive latency
//	bbperftest -topology backtoback am_lat
//	                                  # the two NICs cabled directly, no
//	                                  # switch (the paper's Wire-only path)
//	bbperftest -mode doorbell-gather am_lat
//	bbperftest -cores 16 multi        # concurrent injectors, one QP each
//	bbperftest -cores 64 sweep        # multi-core scaling sweep, one fresh
//	                                  # system per point, points fanned out
//	                                  # on the -parallel worker pool
//	bbperftest -nodes 5 -size 4096 incast
//	                                  # 4 senders funnel into node 0 over
//	                                  # one shared switch port
//	bbperftest -topology fattree -nodes 8 alltoall
//	                                  # uniform matrix over a 2-tier Clos
//	bbperftest -nodes 5 -size 4096 -rxbudget 8 incast
//	                                  # saturating incast against a bounded
//	                                  # receiver: RNR NAKs, sender backoff
//	                                  # and go-back-N replay
//	bbperftest -nodes 5 saturate      # offered load stepped across the
//	                                  # predicted incast bottleneck: knee
//	                                  # point, per-port utilization and
//	                                  # queue depths, per-layer stall shares
//	bbperftest -trace out.json incast # export the run's event trace as
//	                                  # Chrome trace-event JSON (and print
//	                                  # transport recovery counters, which
//	                                  # every command reports)
//	bbperftest lossy                  # sequence-verified stream swept over
//	                                  # the default drop-rate ladder
//	bbperftest -droprate 1e-3 -corruptrate 1e-3 lossy
//	                                  # one lossy point with per-link and
//	                                  # per-QP recovery counters
//	bbperftest -flapdown 100 -flapup 200 flap
//	                                  # fat-tree incast loses a leaf uplink
//	                                  # mid-run: ECMP failover, timeout
//	                                  # replay, restore to steady state
//	bbperftest -seeds 5 chaos         # seeded chaos soak ladder: randomized
//	                                  # wire faults, link flaps, endpoint
//	                                  # crashes and host pauses over a
//	                                  # fat-tree, five invariants per seed
//	bbperftest -workload spec.yaml workload
//	                                  # declarative open-loop traffic: client
//	                                  # cohorts with Poisson/Gamma/Weibull/
//	                                  # periodic arrivals, per-cohort goodput,
//	                                  # latency percentiles and stall
//	                                  # attribution
//	bbperftest -workload spec.yaml -record t.trace workload
//	                                  # record every offered message; replay
//	                                  # it bit-identically with -replay
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"breakband/internal/config"
	"breakband/internal/fabric"
	"breakband/internal/faults"
	"breakband/internal/node"
	"breakband/internal/perftest"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/trace"
	"breakband/internal/uct"
	"breakband/internal/units"
	"breakband/internal/workload"
)

var (
	flagIters    = flag.Int("iters", 2000, "measured iterations (saturate: messages per sender at each load)")
	flagWarmup   = flag.Int("warmup", 200, "warmup iterations (flap: 1 when unset)")
	flagSize     = flag.Int("size", 8, "message size in bytes, 1 to 4096 (inline short path up to 32, buffered copy above; flap and saturate: 4096 when unset)")
	flagMode     = flag.String("mode", "pio-inline", "descriptor path: pio-inline, doorbell-inline, doorbell-gather")
	flagNoise    = flag.Bool("noise", false, "enable the stochastic timing model")
	flagSeed     = flag.Uint64("seed", 1, "random seed")
	flagCores    = flag.Int("cores", 4, "injecting cores for the multi test (sweep: largest core count)")
	flagParallel = flag.Int("parallel", 0, "sweep worker pool (0 = GOMAXPROCS, 1 = serial)")
	flagTopology = flag.String("topology", "auto", "fabric shape: auto (a single switch), backtoback (2 nodes, no switch), switch, fattree")
	flagNodes    = flag.Int("nodes", 0, "system size (0 = 2 nodes, or 5 for incast / 8 for alltoall)")
	flagRadix    = flag.Int("radix", 0, "fat-tree switch radix (0 = smallest that fits)")
	flagCredits  = flag.Int("credits", 0, "per-link credit budget in frames (0 = default)")
	flagRxBudget = flag.Int("rxbudget", 0, "NIC receive pend budget in frames; overflow is RNR-NAKed (0 = unbounded)")
	flagDropRate = flag.Float64("droprate", 0, "per-frame Bernoulli drop probability on every link (lossy: 0 with -corruptrate 0 = sweep the default ladder)")
	flagCorrupt  = flag.Float64("corruptrate", 0, "per-frame Bernoulli corruption probability on every link")
	flagFlapPort = flag.String("flapport", "leaf1.up0", "flap: switch port to take down")
	flagFlapDown = flag.Float64("flapdown", 100, "flap: link-down time in microseconds")
	flagFlapUp   = flag.Float64("flapup", 200, "flap: link-restore time in microseconds")
	flagSeeds    = flag.Int("seeds", 5, "chaos: seed-ladder length (seeds -seed .. -seed+N-1)")
	flagTrace    = flag.String("trace", "", "write the run's event trace as Chrome trace-event JSON to this file (enables tracing)")
	flagWorkload = flag.String("workload", "", "workload: YAML spec file describing cohorts and arrival processes")
	flagRecord   = flag.String("record", "", "workload: record every offered message to this trace file")
	flagReplay   = flag.String("replay", "", "workload: replay a recorded trace instead of generating arrivals")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bbperftest [flags] put_bw|am_lat|multi|sweep|incast|alltoall|saturate|lossy|flap|chaos|workload")
		flag.PrintDefaults()
		os.Exit(2)
	}
	test := flag.Arg(0)
	if err := checkFlags(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "bbperftest:", err)
		os.Exit(2)
	}
	var mode uct.PostMode
	switch *flagMode {
	case "pio-inline":
		mode = uct.PIOInline
	case "doorbell-inline":
		mode = uct.DoorbellInline
	case "doorbell-gather":
		mode = uct.DoorbellGather
	default:
		fmt.Fprintf(os.Stderr, "bbperftest: unknown mode %q\n", *flagMode)
		os.Exit(2)
	}
	noise := config.NoiseOff
	if *flagNoise {
		noise = config.NoiseOn
	}
	kind, err := topoKind(test)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbperftest:", err)
		os.Exit(2)
	}
	nodes := nodeCount(test)
	spec := topo.Spec{Kind: kind, Radix: *flagRadix, Credits: *flagCredits}
	err = spec.Validate(nodes)
	if err == nil && test == "flap" {
		err = checkFlapPort(*flagFlapPort, spec, nodes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbperftest:", err)
		os.Exit(2)
	}
	mkCfg := func() *config.Config {
		cfg := config.TX2CX4(noise, *flagSeed, true)
		cfg.Topology = spec
		cfg.NICRxBudget = *flagRxBudget
		if *flagTrace != "" || test == "saturate" {
			// The tracer rides the kernel: lifecycle spans and policy
			// decisions from every layer, feeding the -trace export and the
			// saturate command's stall attribution.
			cfg.TraceCapacity = 1 << 20
		}
		cfg.Faults = faultConfig(test)
		return cfg
	}
	mkSys := func() *node.System {
		return node.NewSystem(mkCfg(), nodes)
	}
	opt := perftest.Options{Iters: *flagIters, Warmup: warmup(flag.CommandLine), MsgSize: msgSize(flag.CommandLine), Mode: mode}

	switch test {
	case "put_bw":
		sys := mkSys()
		defer sys.Shutdown()
		res := perftest.PutBw(sys, opt)
		exitOnErr(test, res.Err)
		fmt.Println(res)
		fmt.Printf("paper model (Equation 1): %.2f ns between messages\n", config.TabLLPInjModel)
		report(sys)
	case "am_lat":
		sys := mkSys()
		defer sys.Shutdown()
		res := perftest.AmLat(sys, opt)
		exitOnErr(test, res.Err)
		fmt.Println(res)
		s := res.RTTs.Summarize()
		fmt.Printf("round trips: %s\n", s)
		fmt.Printf("paper model (§4.3): %.2f ns one-way\n", config.TabLLPLatencyModel)
		report(sys)
	case "multi":
		sys := mkSys()
		defer sys.Shutdown()
		res := perftest.MultiPutBw(sys, *flagCores, opt)
		exitOnErr(test, res.Err)
		fmt.Println(res)
		report(sys)
	case "sweep":
		// Doubling core counts up to -cores; each point is an isolated
		// fresh system, so the sweep fans out on the -parallel pool.
		var coreCounts []int
		for c := 1; c <= *flagCores; c *= 2 {
			coreCounts = append(coreCounts, c)
		}
		for _, res := range perftest.MultiCoreSweep(mkSys, coreCounts, opt, *flagParallel) {
			exitOnErr(test, res.Err)
			fmt.Println(res)
		}
	case "incast":
		sys := mkSys()
		defer sys.Shutdown()
		res := perftest.OversubscribedPutBw(sys, 0, opt)
		exitOnErr(test, res.Err)
		fmt.Println(res)
		fmt.Printf("receiver PCIe service model: %.1f ns/msg (%.0f msg/s aggregate ceiling)\n",
			res.ModelCycleNs, 1e9/res.ModelCycleNs)
		printHotPorts(sys)
		report(sys)
	case "alltoall":
		sys := mkSys()
		defer sys.Shutdown()
		res := perftest.AllToAllPutBw(sys, opt)
		exitOnErr(test, res.Err)
		fmt.Println(res)
		printHotPorts(sys)
		report(sys)
	case "lossy":
		if *flagDropRate == 0 && *flagCorrupt == 0 {
			// No explicit rates: sweep the default drop-rate ladder, one
			// fresh system per point.
			for _, res := range perftest.LossySweep(mkCfg(), []float64{0, 1e-4, 1e-3, 1e-2}, opt) {
				exitOnErr(test, res.Err)
				fmt.Println(res)
			}
			break
		}
		sys := mkSys()
		defer sys.Shutdown()
		res := perftest.LossyPutBw(sys, opt)
		exitOnErr(test, res.Err)
		fmt.Println(res)
		printFaultPorts(sys)
		report(sys)
	case "flap":
		sys := mkSys()
		defer sys.Shutdown()
		// nodes-2 symmetric cross-leaf senders: the receiver's leaf-mate
		// stays idle so pre/dip/post rates compare like for like.
		res := perftest.FlapIncastPutBw(sys, nodes-2, opt)
		exitOnErr(test, res.Err)
		exitOnErr(test, res.Unmeasured)
		fmt.Println(res)
		printFaultPorts(sys)
		printHotPorts(sys)
		report(sys)
	case "saturate":
		// Offered load stepped across the predicted bottleneck (1.0 = the
		// analytic saturation point); each step is a fresh system fanned
		// out on the -parallel pool.
		loads := []float64{0.6, 0.8, 1.0, 1.2, 1.4}
		res := perftest.SaturationSweep(mkSys, 0, loads, opt.MsgSize, opt.Iters, *flagParallel)
		exitOnErr(test, res.Err)
		fmt.Print(res.Format())
	case "workload":
		if *flagWorkload == "" {
			fmt.Fprintln(os.Stderr, "bbperftest: the workload command needs -workload spec.yaml")
			os.Exit(2)
		}
		wspec, err := workload.LoadSpec(*flagWorkload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bbperftest:", err)
			os.Exit(2)
		}
		wopt := workload.RunOpt{Record: *flagRecord != ""}
		if *flagReplay != "" {
			tr, err := workload.ReadTraceFile(*flagReplay)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bbperftest:", err)
				os.Exit(2)
			}
			wopt.Replay = tr
		}
		cfg := wspec.BuildConfig(noise, *flagSeed)
		// Trace the run so the report can attribute per-layer stalls
		// (and feed the -trace export).
		cfg.TraceCapacity = 1 << 20
		sys := node.NewSystem(cfg, wspec.Nodes)
		defer sys.Shutdown()
		res, err := workload.Run(wspec, sys, wopt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bbperftest:", err)
			os.Exit(1)
		}
		exitOnErr(test, res.Err())
		fmt.Print(perftest.FormatWorkload(res, sys))
		if *flagRecord != "" {
			if err := res.Trace.WriteFile(*flagRecord); err != nil {
				fmt.Fprintln(os.Stderr, "bbperftest:", err)
				os.Exit(1)
			}
			fmt.Printf("trace: recorded %d message(s) to %s\n", len(res.Trace.Recs), *flagRecord)
		}
		printHotPorts(sys)
		report(sys)
	case "chaos":
		// Seeded chaos soak ladder: each seed derives its own randomized
		// fault schedule (wire loss, flaps, endpoint crashes, host pauses)
		// and must hold all five soak invariants. Builds its own fat-tree
		// systems internally, one per seed.
		seeds := make([]uint64, *flagSeeds)
		for i := range seeds {
			seeds[i] = *flagSeed + uint64(i)
		}
		failed := 0
		for _, res := range perftest.ChaosLadder(config.TX2CX4(noise, *flagSeed, true), seeds, perftest.ChaosOptions{}) {
			fmt.Println(res)
			if !res.Passed() {
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "bbperftest: chaos: %d of %d seed(s) violated invariants\n", failed, len(seeds))
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "bbperftest: unknown test %q\n", test)
		os.Exit(2)
	}
}

// exitOnErr ends a run the transport failed (a QP exhausted its retries):
// one line on stderr, exit status 1.
func exitOnErr(test string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbperftest: %s: %v\n", test, err)
		os.Exit(1)
	}
}

// The flags each command reads. Every command reads -noise and -seed; the
// commands that build their systems from the flags read the system flags,
// and the perftest drivers the post flags.
const (
	sysFlags  = "noise seed topology nodes radix credits rxbudget droprate corruptrate "
	postFlags = "iters warmup size mode "
)

// commandFlags maps each command to the flags it reads. An explicitly set
// flag outside its command's row exits 2, naming the flag and the command.
var commandFlags = map[string]string{
	"put_bw":   sysFlags + postFlags + "trace",
	"am_lat":   sysFlags + postFlags + "trace",
	"multi":    sysFlags + postFlags + "cores trace",
	"sweep":    sysFlags + postFlags + "cores parallel",
	"incast":   sysFlags + postFlags + "trace",
	"alltoall": sysFlags + postFlags + "trace",
	"saturate": sysFlags + "iters size parallel",
	"lossy":    sysFlags + "iters size mode trace",
	"flap":     sysFlags + postFlags + "flapport flapdown flapup trace",
	"chaos":    "noise seed seeds",
	"workload": "noise seed workload record replay trace",
}

// unreadFlag reports the first flag set explicitly on fs that its command
// does not read.
func unreadFlag(fs *flag.FlagSet) (name string) {
	reads, ok := commandFlags[fs.Arg(0)]
	if !ok {
		return "" // main reports the unknown command
	}
	fs.Visit(func(f *flag.Flag) {
		if name == "" && !slices.Contains(strings.Fields(reads), f.Name) {
			name = f.Name
		}
	})
	return name
}

// checkFlags rejects flag values no command can run, and flags the command
// does not read, before any system is built. fs holds the parsed command
// line: the command and the flags set on it.
func checkFlags(fs *flag.FlagSet) error {
	test := fs.Arg(0)
	if name := unreadFlag(fs); name != "" {
		return fmt.Errorf("-%s does not apply to %s", name, test)
	}
	kind, kindErr := topoKind(test)
	switch {
	case *flagSize < 1 || *flagSize > uct.MaxBcopy:
		return fmt.Errorf("-size %d outside [1, %d]", *flagSize, uct.MaxBcopy)
	case *flagIters < 1:
		return fmt.Errorf("-iters %d: a run needs at least 1 measured iteration (0 would select the default count)", *flagIters)
	case *flagWarmup < 1:
		return fmt.Errorf("-warmup %d: the shortest warmup is 1 (0 would select the default count)", *flagWarmup)
	case *flagSeeds < 0:
		return fmt.Errorf("-seeds %d is negative", *flagSeeds)
	case *flagRxBudget < 0:
		return fmt.Errorf("-rxbudget %d is negative", *flagRxBudget)
	case test == "multi" && *flagCores < 1:
		return fmt.Errorf("-cores %d: multi needs at least one core", *flagCores)
	case *flagParallel < 0:
		return fmt.Errorf("-parallel %d is negative (0 selects GOMAXPROCS)", *flagParallel)
	case test == "lossy" && *flagSize < 8:
		return fmt.Errorf("-size %d: lossy stamps an 8-byte sequence number in every message, so it needs at least 8", *flagSize)
	case test == "saturate" && msgSize(fs) <= 2048:
		return fmt.Errorf("-size %d: saturate's bottleneck model holds only above 2048 B, where one write fills the posted PCIe credits", msgSize(fs))
	case *flagRadix != 0 && kindErr == nil && kind != topo.FatTree:
		return fmt.Errorf("-radix sizes a fat-tree, but %s runs on -topology %s", test, *flagTopology)
	case *flagTrace != "" && test == "lossy" && *flagDropRate == 0 && *flagCorrupt == 0:
		return fmt.Errorf("-trace exports one system's run, but lossy with no -droprate or -corruptrate sweeps a system per rate")
	}
	if err := checkEndpoints(fs); err != nil {
		return err
	}
	fc := faultConfig(test)
	return fc.Validate()
}

// checkEndpoints rejects a system whose busiest node would open more
// endpoints than its memory holds: each takes uct.EpTargetBytes, the
// endpoint plus the message-sized target its peer writes into.
func checkEndpoints(fs *flag.FlagSet) error {
	test := fs.Arg(0)
	perEp := uct.EpTargetBytes(msgSize(fs))
	fit := node.MemBytes / perEp
	flagName, flagVal := "-nodes", nodeCount(test)
	var eps int
	switch test {
	case "incast", "saturate", "alltoall":
		eps = flagVal - 1
	case "flap":
		eps = flagVal - 2
	case "multi":
		flagName, flagVal, eps = "-cores", *flagCores, *flagCores
	case "sweep":
		// The sweep doubles the core count up to -cores.
		flagName, flagVal = "-cores", *flagCores
		for c := 1; c <= *flagCores; c *= 2 {
			eps = c
		}
	}
	if uint64(eps) > fit {
		return fmt.Errorf("%s %d: %s opens %d endpoints on one node, but its %d MiB hold %d (%d KiB each)",
			flagName, flagVal, test, eps, node.MemBytes>>20, fit, perEp>>10)
	}
	return nil
}

// topoKind resolves -topology for test: auto is a single switch, except
// for flap, which needs redundant paths to fail over across.
func topoKind(test string) (topo.Kind, error) {
	kind, err := topo.ParseKind(*flagTopology)
	if test == "flap" && kind == topo.Auto {
		kind = topo.FatTree
	}
	return kind, err
}

// nodeCount resolves -nodes for test: 0 selects 2 nodes, or 5 for incast
// and saturate, 6 for flap and 8 for alltoall.
func nodeCount(test string) int {
	if *flagNodes != 0 {
		return *flagNodes
	}
	switch test {
	case "incast", "saturate":
		return 5
	case "flap":
		return 6
	case "alltoall":
		return 8
	}
	return 2
}

// msgSize resolves -size for the command of fs: flap and saturate run 4 KiB
// puts when -size is unset, like the incast family, so the shared port
// (flap) or the receiver path (saturate) is the contended stage.
func msgSize(fs *flag.FlagSet) int {
	if test := fs.Arg(0); (test == "flap" || test == "saturate") && !isSet(fs, "size") {
		return 4096
	}
	return *flagSize
}

// warmup resolves -warmup for the command of fs: flap warms up with one
// iteration when -warmup is unset, so its measured phase opens before the
// default flap's pre window (a 200-iteration warmup of 4 KiB incast puts
// outlasts it).
func warmup(fs *flag.FlagSet) int {
	if fs.Arg(0) == "flap" && !isSet(fs, "warmup") {
		return 1
	}
	return *flagWarmup
}

// isSet reports whether the command line fs set flag name explicitly.
func isSet(fs *flag.FlagSet, name string) (set bool) {
	fs.Visit(func(f *flag.Flag) {
		set = set || f.Name == name
	})
	return set
}

// checkFlapPort rejects a flap on a port that spec, compiled for nodes
// hosts, does not have: the fabric would panic on it when it adopts the
// fault schedule. spec must already validate. Like perftest.ChaosSchedule,
// it reads the port names off a scratch fabric; they do not depend on the
// wire parameters, so a zero fabric.Config serves.
func checkFlapPort(port string, spec topo.Spec, nodes int) error {
	scratch := topo.NewFabric(sim.NewKernel(), fabric.Config{}, spec, nodes)
	if !slices.Contains(scratch.PortNames(), port) {
		return fmt.Errorf("-flapport %q: %s has no such port", port, scratch.Spec())
	}
	return nil
}

// faultConfig builds the fault schedule the flags describe for test.
func faultConfig(test string) faults.Config {
	fc := faults.Config{DropRate: *flagDropRate, CorruptRate: *flagCorrupt}
	if test == "flap" {
		fc.Flaps = []faults.Flap{{
			Port: *flagFlapPort,
			Down: units.Microseconds(*flagFlapDown),
			Up:   units.Microseconds(*flagFlapUp),
		}}
	}
	return fc
}

// report appends the uniform observability tail every command shares: the
// per-QP and per-node transport recovery counters, endpoint fault records,
// and the -trace export.
func report(sys *node.System) {
	printRecovery(sys)
	dumpTrace(sys)
}

// printRecovery lists the transport recovery work of the run: per-node
// aggregates with a per-QP breakdown (nodes and QPs with no recovery
// activity are skipped, so healthy runs print nothing), plus the per-node
// crash and pause records when fault injection is armed.
func printRecovery(sys *node.System) {
	header := func() {
		fmt.Println("transport recovery:")
	}
	printed := false
	for _, nd := range sys.Nodes {
		st := nd.NIC.Stats()
		if st.AckTimeouts == 0 && st.SeqNaksRecv == 0 && st.Retransmits == 0 &&
			st.RNRNaksRecv == 0 && st.RNRNaksSent == 0 && st.CrashDiscards == 0 {
			continue
		}
		if !printed {
			header()
			printed = true
		}
		fmt.Printf("  node%-4d %5d ack timeout(s), %5d seq NAK(s), %5d RNR NAK(s) recv / %d sent, %5d retransmit(s), %d crash discard(s)\n",
			nd.ID, st.AckTimeouts, st.SeqNaksRecv, st.RNRNaksRecv, st.RNRNaksSent, st.Retransmits, st.CrashDiscards)
		for _, qp := range nd.NIC.QPs() {
			if qp.AckTimeouts == 0 && qp.SeqNaksRecv == 0 && qp.Retransmits == 0 && qp.RNRNaksRecv == 0 {
				continue
			}
			label := ""
			if qp.Label != "" {
				label = " [" + qp.Label + "]"
			}
			fmt.Printf("    qp%-5d %5d ack timeout(s), %5d seq NAK(s), %5d RNR NAK(s), %5d retransmit(s)%s\n",
				qp.QPN, qp.AckTimeouts, qp.SeqNaksRecv, qp.RNRNaksRecv, qp.Retransmits, label)
		}
	}
	if sys.Faults != nil {
		for _, nf := range sys.Faults.NodeFaultRecords() {
			if nf.Crashes == 0 && nf.Pauses == 0 {
				continue
			}
			if !printed {
				header()
				printed = true
			}
			fmt.Printf("  node%-4d %d crash(es), %d pause(s)\n", nf.Node, nf.Crashes, nf.Pauses)
		}
	}
}

// dumpTrace writes the captured event trace as Chrome trace-event JSON
// (load in chrome://tracing or Perfetto) when -trace is set.
func dumpTrace(sys *node.System) {
	if *flagTrace == "" {
		return
	}
	tr := sys.Tracer()
	if tr == nil {
		fmt.Fprintln(os.Stderr, "bbperftest: -trace set but tracing is disabled")
		return
	}
	f, err := os.Create(*flagTrace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbperftest:", err)
		os.Exit(1)
	}
	defer f.Close()
	events := tr.Events()
	if err := trace.WriteChrome(f, tr, events); err != nil {
		fmt.Fprintln(os.Stderr, "bbperftest:", err)
		os.Exit(1)
	}
	fmt.Printf("trace: wrote %d event(s) to %s (%d overwritten in the ring)\n",
		len(events), *flagTrace, tr.Overwritten())
}

// printFaultPorts lists the per-link fault counters of the run.
func printFaultPorts(sys *node.System) {
	if sys.Faults == nil {
		return
	}
	fmt.Println("fault injection:")
	for _, l := range sys.Faults.Links() {
		if l.Dropped == 0 && l.Corrupted == 0 && l.Flaps == 0 {
			continue
		}
		fmt.Printf("  %-16s %6d dropped, %6d corrupted, %3d flaps\n",
			l.Name, l.Dropped, l.Corrupted, l.Flaps)
	}
}

// printHotPorts lists the congested egress ports of the run.
func printHotPorts(sys *node.System) {
	fab := sys.Topo()
	fmt.Printf("topology %v:\n", fab.Spec())
	fmt.Print(fab.FormatHotPorts())
}
