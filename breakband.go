// Package breakband reproduces "Breaking Band: A Breakdown of
// High-performance Communication" (Zambre, Grodowitz, Chandramowlishwaran,
// Shamis; ICPP 2019) as a simulation-backed Go library.
//
// The package is the public face of the repository: it builds calibrated
// two-node systems (an Arm ThunderX2-class server with a ConnectX-4-class
// InfiniBand adapter, modelled end to end down to PCIe TLPs), re-executes
// the paper's measurement methodology, assembles its analytical models of
// injection overhead and end-to-end latency, regenerates every table and
// figure of the evaluation, and runs the §7 what-if optimization analysis —
// including checking the analytical predictions against live simulation.
//
// Quick start:
//
//	res := breakband.Reproduce(breakband.Options{})
//	fmt.Println(res.Table1())
//	fmt.Println(res.RenderValidations())
//	fmt.Println(res.Figure("fig13"))
//
// Building & running (a plain Go module, no dependencies outside the
// standard library):
//
//	go build ./...              # library + bbperftest, bbosu, breakband commands
//	go vet ./...
//	go test ./...               # add -race to exercise the parallel campaign
//	go run ./cmd/breakband all  # regenerate every table and figure
//
// The measurement campaign is embarrassingly parallel: the paper's §3
// methodology gives every sub-measurement its own freshly built system, so
// Reproduce fans them out on a bounded worker pool sized by
// Options.Parallelism (default runtime.GOMAXPROCS). Parallel and serial
// campaigns are bit-identical at the same seed — every task derives its own
// noise stream from the campaign seed and its task name.
//
// ARCHITECTURE.md maps every internal package to its layer and paper
// section, documents the event/ownership/credit contracts, and catalogs
// the runnable scenarios (put_bw, am_lat, multicore, incast, all-to-all,
// oversubscribed) with the command that drives each.
package breakband

import (
	"fmt"
	"strings"

	"breakband/internal/config"
	"breakband/internal/core/breakdown"
	"breakband/internal/core/model"
	"breakband/internal/core/whatif"
	"breakband/internal/measure"
	"breakband/internal/node"
	"breakband/internal/report"
)

// Options selects the system variant and campaign size.
type Options struct {
	// Noise enables the stochastic timing model (lognormal software
	// jitter plus rare preemption spikes). Off, every run is exact
	// arithmetic.
	Noise bool
	// Seed drives all randomness when Noise is on.
	Seed uint64
	// DirectCable removes the switch (the paper's main configuration
	// includes it).
	DirectCable bool
	// Samples is the per-component sample count for measurement
	// (default 400; the paper requires at least 100).
	Samples int
	// Windows is the message-rate window count (default 20).
	Windows int
	// Parallelism bounds the measurement campaign's worker pool. Zero (or
	// negative) selects runtime.GOMAXPROCS(0); 1 forces serial execution.
	// The pool width never changes results: each sub-measurement runs on
	// its own fresh system with a task-derived random stream, so parallel
	// campaigns are bit-identical to serial ones at the same seed.
	Parallelism int
}

// configMaker returns a fresh-config constructor for these options.
func (o Options) configMaker() func() *config.Config {
	noise := config.NoiseOff
	if o.Noise {
		noise = config.NoiseOn
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	return func() *config.Config {
		return config.TX2CX4(noise, seed, !o.DirectCable)
	}
}

// NewSystem builds one calibrated two-node system for direct experimentation
// with the internal benchmarks (the examples show idiomatic use).
func (o Options) NewSystem() *node.System {
	return node.NewSystem(o.configMaker()(), 2)
}

// NewNodeSystem builds an n-node system over the compiled topology (a
// shared single switch by default; set Config.Topology via the internal
// packages for fat-trees) with every NIC's receive pend budget set to
// rxBudget (0 = unbounded) — the entry point for the congestion scenarios
// in internal/perftest (incast, all-to-all, oversubscribed). See
// ARCHITECTURE.md's scenario catalog. DirectCable cables exactly two nodes
// back to back, so with it set any n other than 2 panics, as n < 2 does.
func (o Options) NewNodeSystem(n, rxBudget int) *node.System {
	cfg := o.configMaker()()
	cfg.NICRxBudget = rxBudget
	return node.NewSystem(cfg, n)
}

// Results is a completed reproduction: the measured component table, the
// observed benchmark values, and everything derived from them.
type Results struct {
	Opts     Options
	Measured *measure.Result
}

// Reproduce runs the full measurement campaign and returns the results.
func Reproduce(opts Options) *Results {
	mo := measure.DefaultOpts()
	if opts.Samples > 0 {
		mo.Samples = opts.Samples
	}
	if opts.Windows > 0 {
		mo.Windows = opts.Windows
	}
	mo.Parallelism = opts.Parallelism
	return &Results{Opts: opts, Measured: measure.Run(opts.configMaker(), mo)}
}

// Components returns the measured component table (the Table-1
// reproduction).
func (r *Results) Components() model.Components { return r.Measured.Components }

// PaperComponents returns the component table populated from the paper's
// published Table 1, for side-by-side comparison.
func PaperComponents() model.Components { return model.Paper() }

// Validations returns the four §4/§6 model-vs-observed comparisons.
func (r *Results) Validations() []model.Validation { return r.Measured.Validations() }

// RenderValidations renders them with the paper's corresponding numbers.
func (r *Results) RenderValidations() string {
	t := &report.Table{
		Title:   "Model validation (paper: all within 5%)",
		Headers: []string{"quantity", "modeled ns", "observed ns", "error", "paper modeled", "paper observed"},
	}
	paper := [][2]float64{
		{config.TabLLPInjModel, config.TabObsLLPInjection},
		{config.TabLLPLatencyModel, config.TabObsLLPLatency},
		{264.97, config.TabObsOverallInj},
		{config.TabE2ELatencyModel, config.TabObsE2ELatency},
	}
	for i, v := range r.Validations() {
		t.AddRow(v.Name,
			fmt.Sprintf("%.2f", v.ModeledNs),
			fmt.Sprintf("%.2f", v.ObservedNs),
			fmt.Sprintf("%+.2f%%", v.ErrPct),
			fmt.Sprintf("%.2f", paper[i][0]),
			fmt.Sprintf("%.2f", paper[i][1]))
	}
	return t.String()
}

// Table1 renders the measured component table next to the paper's values.
func (r *Results) Table1() string {
	c := r.Components()
	t := &report.Table{
		Title:   "Table 1: measured times of various components (ns)",
		Headers: []string{"component", "measured", "paper"},
	}
	rows := []struct {
		name   string
		ours   float64
		theirs float64
	}{
		{"Message descriptor setup", c.MDSetup, config.TabMDSetup},
		{"Barrier for message descriptor", c.BarrierMD, config.TabBarrierMD},
		{"Barrier for DoorBell counter", c.BarrierDBC, config.TabBarrierDBC},
		{"PIO copy (64 bytes)", c.PIOCopy, config.TabPIOCopy},
		{"Miscellaneous in LLP_post", c.LLPPostMisc(), config.TabLLPPostMisc},
		{"LLP_post (total of above)", c.LLPPost, config.TabLLPPost},
		{"LLP_prog", c.LLPProg, config.TabLLPProg},
		{"Busy post", c.BusyPost, config.TabBusyPost},
		{"Measurement update", c.MeasUpdate, config.TabMeasUpdate},
		{"Misc in Inj_overhead (total of above)", c.BusyPost + c.MeasUpdate, config.TabMiscInj},
		{"PCIe for a 64-byte payload", c.PCIe, config.TabPCIe},
		{"Wire", c.Wire, config.TabWire},
		{"Switch", c.Switch, config.TabSwitch},
		{"Network (total of above)", c.Network(), config.TabNetwork},
		{"RC-to-MEM(8B)", c.RCToMem8, config.TabRCToMem8},
		{"MPI_Isend in MPICH", c.HLPPostMPICH, config.TabMPIIsendMPICH},
		{"MPI_Isend in UCP", c.HLPPostUCP, config.TabMPIIsendUCP},
		{"Callback for a completed MPI_Irecv in MPICH", c.MPICHRecvCB, config.TabMPICHRecvCB},
		{"Successful MPI_Wait for MPI_Irecv in MPICH", c.WaitMPICH, config.TabMPIWaitMPICH},
		{"Callback for a completed MPI_Irecv in UCP", c.UCPRecvCB, config.TabUCPRecvCB},
		{"Successful MPI_Wait for MPI_Irecv in UCP", c.WaitUCP, config.TabMPIWaitUCP},
	}
	for _, row := range rows {
		t.AddRow(row.name, fmt.Sprintf("%.2f", row.ours), fmt.Sprintf("%.2f", row.theirs))
	}
	return t.String()
}

// Figure renders a figure by its paper number: fig4, fig6, fig7, fig8,
// fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17a-fig17d (or fig17
// for all four panels).
func (r *Results) Figure(id string) string {
	c := r.Components()
	const width = 64
	switch strings.ToLower(id) {
	case "fig4":
		return report.Bar(breakdown.Fig4LLPPost(c), width)
	case "fig7":
		return r.renderFig7()
	case "fig8":
		return report.Bar(breakdown.Fig8Injection(c), width)
	case "fig10":
		return report.Bar(breakdown.Fig10Latency(c), width)
	case "fig11":
		return report.Bars(breakdown.Fig11HLP(c), width)
	case "fig12":
		return report.Bar(breakdown.Fig12OverallInjection(c), width)
	case "fig13":
		return report.Bar(breakdown.Fig13E2ELatency(c), width)
	case "fig14":
		return report.Bars(breakdown.Fig14HLPvsLLP(c), width)
	case "fig15":
		return report.Bars(breakdown.Fig15HighLevel(c), width)
	case "fig16":
		return report.Bars(breakdown.Fig16OnNode(c), width)
	case "fig17a":
		return report.SeriesChart("Fig 17a: CPU reductions vs injection speedup", whatif.Fig17aCPUInjection(c), 12) +
			report.SeriesTable("", whatif.Fig17aCPUInjection(c)).String()
	case "fig17b":
		return report.SeriesChart("Fig 17b: CPU reductions vs latency speedup", whatif.Fig17bCPULatency(c), 12) +
			report.SeriesTable("", whatif.Fig17bCPULatency(c)).String()
	case "fig17c":
		return report.SeriesChart("Fig 17c: I/O reductions vs latency speedup", whatif.Fig17cIOLatency(c), 12) +
			report.SeriesTable("", whatif.Fig17cIOLatency(c)).String()
	case "fig17d":
		return report.SeriesChart("Fig 17d: network reductions vs latency speedup", whatif.Fig17dNetworkLatency(c), 12) +
			report.SeriesTable("", whatif.Fig17dNetworkLatency(c)).String()
	case "fig17":
		return r.Figure("fig17a") + "\n" + r.Figure("fig17b") + "\n" +
			r.Figure("fig17c") + "\n" + r.Figure("fig17d")
	default:
		return fmt.Sprintf("unknown figure %q (try fig4, fig7, fig8, fig10..fig17)", id)
	}
}

// renderFig7 renders the observed injection-overhead statistics held in the
// campaign summary. (The cmd/breakband fig7 command renders the full
// histogram from a dedicated high-iteration run via RunPutBw.)
func (r *Results) renderFig7() string {
	s := r.Measured.Observed.LLPInjection
	var sb strings.Builder
	sb.WriteString("Fig 7: distribution of the observed injection overhead (ns)\n")
	fmt.Fprintf(&sb, "Mean: %.2f  Median: %.2f  Min: %.2f  Max: %.2f  Std dev: %.4f  (n=%d)\n",
		s.Mean, s.Median, s.Min, s.Max, s.Std, s.N)
	sb.WriteString(Fig7PaperLine() + "\n")
	return sb.String()
}

// Fig7PaperLine renders the paper's Figure-7 distribution statistics (the
// reference line under every Figure-7 rendering).
func Fig7PaperLine() string {
	return fmt.Sprintf("Paper: Mean %.2f  Median %.2f  Min %.2f  Max %.2f  Std dev %.4f",
		config.TabObsLLPInjection, config.TabFig7Median, config.TabFig7Min,
		config.TabFig7Max, config.TabFig7Std)
}

// Breakdowns returns all figure datasets for programmatic use.
func (r *Results) Breakdowns() map[string][]breakdown.Breakdown {
	c := r.Components()
	return map[string][]breakdown.Breakdown{
		"fig4":  {breakdown.Fig4LLPPost(c)},
		"fig8":  {breakdown.Fig8Injection(c)},
		"fig10": {breakdown.Fig10Latency(c)},
		"fig11": breakdown.Fig11HLP(c),
		"fig12": {breakdown.Fig12OverallInjection(c)},
		"fig13": {breakdown.Fig13E2ELatency(c)},
		"fig14": breakdown.Fig14HLPvsLLP(c),
		"fig15": breakdown.Fig15HighLevel(c),
		"fig16": breakdown.Fig16OnNode(c),
	}
}

// WhatIf returns the §7 optimization scenarios with their Figure-17 curves.
func (r *Results) WhatIf() []whatif.Optimization {
	return whatif.Optimizations(r.Components())
}
