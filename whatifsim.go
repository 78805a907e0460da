package breakband

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/core/model"
	"breakband/internal/core/whatif"
	"breakband/internal/node"
	"breakband/internal/osu"
	"breakband/internal/rng"
	"breakband/internal/units"
)

// Metric selects which overall quantity a simulated optimization is
// evaluated against.
type Metric int

// Metrics.
const (
	// Latency is the OSU end-to-end one-way latency (Figure 17 b/c/d).
	Latency Metric = iota
	// Injection is the OSU overall injection overhead (Figure 17a).
	Injection
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	if m == Injection {
		return "injection"
	}
	return "latency"
}

// Component names an optimizable part of the system for simulation-backed
// what-if analysis.
type Component string

// Components supported by SimulateOptimization.
const (
	CompPIO     Component = "pio"       // the 64-byte PIO copy
	CompLLPPost Component = "llp_post"  // the whole LLP initiation
	CompHLPPost Component = "hlp_post"  // MPI_Isend above the LLP
	CompHLPRx   Component = "hlp_rx"    // the HLP receive-progress path
	CompPCIe    Component = "pcie"      // the PCIe link (both crossings)
	CompRCToMem Component = "rc_to_mem" // the RC's memory-commit latency
	CompIO      Component = "io"        // integrated NIC: PCIe + RC-to-MEM
	CompWire    Component = "wire"      // the interconnect cable
	CompSwitch  Component = "switch"    // the switch forwarding latency
)

// Components lists every supported component.
func Components() []Component {
	return []Component{
		CompPIO, CompLLPPost, CompHLPPost, CompHLPRx,
		CompPCIe, CompRCToMem, CompIO, CompWire, CompSwitch,
	}
}

// WhatIfCheck compares the paper's analytical speedup prediction against the
// speedup actually realized when the optimization is applied inside the
// event-driven simulation (§7 asserts a distributed-system simulator yields
// the same linear speedups; here we verify it).
type WhatIfCheck struct {
	Component Component
	Metric    Metric
	Reduction float64
	// BaselineNs and OptimizedNs are the simulated overall times.
	BaselineNs, OptimizedNs float64
	// PredictedPct is the model's speedup; SimulatedPct the realized one.
	PredictedPct, SimulatedPct float64
}

// String implements fmt.Stringer.
func (w WhatIfCheck) String() string {
	return fmt.Sprintf("%-9s %-9s -%2.0f%%: predicted %5.2f%%, simulated %5.2f%% (%.2f -> %.2f ns)",
		w.Component, w.Metric, w.Reduction*100, w.PredictedPct, w.SimulatedPct,
		w.BaselineNs, w.OptimizedNs)
}

// scale wraps a distribution to run at (1 - r) of its base cost.
func scale(d rng.Dist, r float64) rng.Dist {
	return rng.Scaled{Base: d, Factor: 1 - r}
}

// scaleTime applies a (1-r) factor to a fixed hardware latency.
func scaleTime(t units.Time, r float64) units.Time {
	return units.Time(float64(t) * (1 - r))
}

// applyOptimization rewrites cfg so that the component runs r (0..1) faster.
func applyOptimization(cfg *config.Config, comp Component, r float64) {
	switch comp {
	case CompPIO:
		cfg.SW.PIOCopy = scale(cfg.SW.PIOCopy, r)
	case CompLLPPost:
		cfg.SW.LLPPostEntry = scale(cfg.SW.LLPPostEntry, r)
		cfg.SW.MDSetup = scale(cfg.SW.MDSetup, r)
		cfg.SW.BarrierMD = scale(cfg.SW.BarrierMD, r)
		cfg.SW.DBCIncrement = scale(cfg.SW.DBCIncrement, r)
		cfg.SW.BarrierDBC = scale(cfg.SW.BarrierDBC, r)
		cfg.SW.PIOCopy = scale(cfg.SW.PIOCopy, r)
		cfg.SW.LLPPostExit = scale(cfg.SW.LLPPostExit, r)
	case CompHLPPost:
		cfg.SW.MpiIsend = scale(cfg.SW.MpiIsend, r)
		cfg.SW.UcpIsend = scale(cfg.SW.UcpIsend, r)
	case CompHLPRx:
		cfg.SW.UcpRecvCB = scale(cfg.SW.UcpRecvCB, r)
		cfg.SW.MpichRecvCB = scale(cfg.SW.MpichRecvCB, r)
		cfg.SW.MpichAfterPrg = scale(cfg.SW.MpichAfterPrg, r)
	case CompPCIe:
		cfg.Link.Prop = scaleTime(cfg.Link.Prop, r)
	case CompRCToMem:
		cfg.RC.RCToMemBase = scaleTime(cfg.RC.RCToMemBase, r)
	case CompIO:
		cfg.Link.Prop = scaleTime(cfg.Link.Prop, r)
		cfg.RC.RCToMemBase = scaleTime(cfg.RC.RCToMemBase, r)
	case CompWire:
		cfg.Fabric.WireProp = scaleTime(cfg.Fabric.WireProp, r)
	case CompSwitch:
		cfg.Fabric.SwitchLatency = scaleTime(cfg.Fabric.SwitchLatency, r)
	default:
		panic(fmt.Sprintf("breakband: unknown component %q", comp))
	}
}

// componentNs maps a Component to its modelled T_X for the given metric
// (paper §7 definitions).
func componentNs(c model.Components, comp Component, m Metric) float64 {
	switch comp {
	case CompPIO:
		return c.PIOCopy
	case CompLLPPost:
		return c.LLPPost
	case CompHLPPost:
		return c.HLPPost()
	case CompHLPRx:
		return c.HLPRxProg()
	case CompPCIe:
		if m == Injection {
			return 0 // overlapped with CPU time in the injection model
		}
		return 2 * c.PCIe
	case CompRCToMem:
		if m == Injection {
			return 0
		}
		return c.RCToMem8
	case CompIO:
		if m == Injection {
			return 0
		}
		return 2*c.PCIe + c.RCToMem8
	case CompWire:
		if m == Injection {
			return 0
		}
		return c.Wire
	case CompSwitch:
		if m == Injection {
			return 0
		}
		return c.Switch
	default:
		panic(fmt.Sprintf("breakband: unknown component %q", comp))
	}
}

// totalNs picks the model total for the metric.
func totalNs(c model.Components, m Metric) float64 {
	if m == Injection {
		return c.OverallInjection()
	}
	return c.E2ELatency()
}

// SimulateOptimization reduces comp by reduction (0..1), reruns the
// benchmark behind metric, and compares the realized speedup with the
// analytical prediction. The prediction uses the paper's calibrated
// component table; the simulation uses the live system.
func SimulateOptimization(opts Options, comp Component, metric Metric, reduction int) WhatIfCheck {
	if reduction <= 0 || reduction >= 100 {
		panic(fmt.Sprintf("breakband: reduction must be 1..99, got %d", reduction))
	}
	r := float64(reduction) / 100
	run := func(optimize bool) float64 {
		cfg := opts.configMaker()()
		if optimize {
			applyOptimization(cfg, comp, r)
		}
		sys := node.NewSystem(cfg, 2)
		defer sys.Shutdown()
		switch metric {
		case Injection:
			return osu.MessageRate(sys, osu.Options{Windows: 12}).MeanInjNs
		default:
			return osu.Latency(sys, osu.Options{Iters: 400}).ReportedNs
		}
	}
	base := run(false)
	opt := run(true)

	ref := model.Paper()
	predicted := whatif.Speedup(componentNs(ref, comp, metric), totalNs(ref, metric), r)
	return WhatIfCheck{
		Component:    comp,
		Metric:       metric,
		Reduction:    r,
		BaselineNs:   base,
		OptimizedNs:  opt,
		PredictedPct: predicted,
		SimulatedPct: (base - opt) / base * 100,
	}
}
