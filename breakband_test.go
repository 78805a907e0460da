package breakband

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// repro caches one deterministic reproduction for the package tests (the
// tests are parallel, hence the once).
var (
	reproOnce sync.Once
	repro     *Results
)

func reproduced(t *testing.T) *Results {
	t.Helper()
	reproOnce.Do(func() {
		repro = Reproduce(Options{Samples: 150, Windows: 10})
	})
	return repro
}

func TestReproduceValidations(t *testing.T) {
	t.Parallel()
	res := reproduced(t)
	vals := res.Validations()
	if len(vals) != 4 {
		t.Fatalf("validations = %d", len(vals))
	}
	for _, v := range vals {
		if !v.Within(5) {
			t.Errorf("%s: %.2f%% model error", v.Name, v.ErrPct)
		}
	}
	out := res.RenderValidations()
	for _, want := range []string{"LLP injection", "E2E latency", "paper observed"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered validations missing %q", want)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	t.Parallel()
	res := reproduced(t)
	out := res.Table1()
	for _, want := range []string{
		"Message descriptor setup", "PIO copy (64 bytes)", "RC-to-MEM(8B)",
		"27.78", "94.25", "240.96", "Successful MPI_Wait for MPI_Irecv in UCP",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestFigures(t *testing.T) {
	t.Parallel()
	res := reproduced(t)
	for _, id := range []string{
		"fig4", "fig7", "fig8", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17a", "fig17b", "fig17c", "fig17d",
	} {
		out := res.Figure(id)
		if out == "" || strings.Contains(out, "unknown figure") {
			t.Errorf("figure %s did not render", id)
		}
	}
	if !strings.Contains(res.Figure("bogus"), "unknown figure") {
		t.Error("bogus figure id accepted")
	}
}

func TestFig13MatchesPaperShares(t *testing.T) {
	t.Parallel()
	res := reproduced(t)
	out := res.Figure("fig13")
	// The measured table reproduces the paper's Figure-13 shares.
	for _, want := range []string{"HLP_post 1.9", "Wire 19.8", "HLP_rx_prog 16.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig13 missing %q:\n%s", want, out)
		}
	}
}

func TestBreakdownsMap(t *testing.T) {
	t.Parallel()
	res := reproduced(t)
	bd := res.Breakdowns()
	for _, key := range []string{"fig4", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
		if len(bd[key]) == 0 {
			t.Errorf("breakdowns missing %s", key)
		}
	}
}

func TestWhatIfScenarios(t *testing.T) {
	t.Parallel()
	res := reproduced(t)
	if len(res.WhatIf()) != 5 {
		t.Errorf("scenarios = %d", len(res.WhatIf()))
	}
}

func TestPaperComponents(t *testing.T) {
	c := PaperComponents()
	if math.Abs(c.E2ELatency()-1387.02) > 0.005 {
		t.Errorf("paper E2E = %v", c.E2ELatency())
	}
}

func TestRunBenchmarks(t *testing.T) {
	t.Parallel()
	opts := Options{}
	pb := RunPutBw(opts, 500)
	if math.Abs(pb.MeanInjNs-295.73)/295.73 > 0.05 {
		t.Errorf("put_bw = %.2f", pb.MeanInjNs)
	}
	if pb.InjDist.N < 499 {
		t.Errorf("injection samples = %d", pb.InjDist.N)
	}
	al := RunAmLat(opts, 300)
	if math.Abs(al.AdjustedNs-1135.8)/1135.8 > 0.05 {
		t.Errorf("am_lat = %.2f", al.AdjustedNs)
	}
	mr := RunMessageRate(opts, 8)
	if math.Abs(mr.MeanInjNs-264.97)/264.97 > 0.05 {
		t.Errorf("message rate = %.2f", mr.MeanInjNs)
	}
	lt := RunMPILatency(opts, 300)
	if math.Abs(lt.OneWayNs-1387.02)/1387.02 > 0.05 {
		t.Errorf("MPI latency = %.2f", lt.OneWayNs)
	}
}

func TestSimulateOptimizationAgreesWithModel(t *testing.T) {
	t.Parallel()
	opts := Options{}
	checks := []struct {
		comp Component
		m    Metric
		r    int
	}{
		{CompPIO, Injection, 84},
		{CompIO, Latency, 50},
		{CompSwitch, Latency, 70},
		{CompWire, Latency, 50},
	}
	for _, c := range checks {
		res := SimulateOptimization(opts, c.comp, c.m, c.r)
		if res.SimulatedPct <= 0 {
			t.Errorf("%s: no simulated speedup", c.comp)
			continue
		}
		// §7: the simulator reproduces the analytical linear speedups.
		diff := math.Abs(res.PredictedPct - res.SimulatedPct)
		if diff > 1.0 {
			t.Errorf("%s -%d%% %s: predicted %.2f%% vs simulated %.2f%%",
				c.comp, c.r, c.m, res.PredictedPct, res.SimulatedPct)
		}
	}
}

func TestSimulateOptimizationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("reduction 0 accepted")
		}
	}()
	SimulateOptimization(Options{}, CompPIO, Latency, 0)
}

func TestComponentsList(t *testing.T) {
	if len(Components()) != 9 {
		t.Errorf("components = %d", len(Components()))
	}
}

func TestApplyOptimizationCoversAllComponents(t *testing.T) {
	// Every advertised component must be applicable and must actually
	// lower the corresponding configured cost.
	for _, comp := range Components() {
		base := Options{}.configMaker()()
		mod := Options{}.configMaker()()
		applyOptimization(mod, comp, 0.5)
		changed := base.SW.PIOCopy.Mean() != mod.SW.PIOCopy.Mean() ||
			base.SW.MDSetup.Mean() != mod.SW.MDSetup.Mean() ||
			base.SW.MpiIsend.Mean() != mod.SW.MpiIsend.Mean() ||
			base.SW.UcpRecvCB.Mean() != mod.SW.UcpRecvCB.Mean() ||
			base.PCIeProp != mod.PCIeProp ||
			base.RCToMemBase != mod.RCToMemBase ||
			base.Fabric.WireProp != mod.Fabric.WireProp ||
			base.Fabric.SwitchLatency != mod.Fabric.SwitchLatency
		if !changed {
			t.Errorf("component %s: applyOptimization changed nothing", comp)
		}
	}
}

func TestComponentNsMatchesPaperShares(t *testing.T) {
	// The prediction table behind SimulateOptimization must agree with
	// the Figure-17 component definitions.
	c := PaperComponents()
	if got := componentNs(c, CompIO, Latency); math.Abs(got-515.94) > 0.01 {
		t.Errorf("integrated-NIC T_X = %v, want 515.94", got)
	}
	if got := componentNs(c, CompHLPPost, Injection); math.Abs(got-26.56) > 0.01 {
		t.Errorf("HLP_post T_X = %v", got)
	}
	// Off-node components do not enter the injection model (the CPU time
	// pipelines over PCIe, paper §4.2).
	for _, comp := range []Component{CompWire, CompSwitch, CompPCIe, CompRCToMem, CompIO} {
		if componentNs(c, comp, Injection) != 0 {
			t.Errorf("%s should not contribute to the injection model", comp)
		}
	}
}

func TestMetricString(t *testing.T) {
	if Latency.String() != "latency" || Injection.String() != "injection" {
		t.Error("metric strings")
	}
}

func TestNoisySeedsReproducible(t *testing.T) {
	t.Parallel()
	a := RunPutBw(Options{Noise: true, Seed: 9}, 300)
	b := RunPutBw(Options{Noise: true, Seed: 9}, 300)
	if a.MeanInjNs != b.MeanInjNs {
		t.Error("same seed diverged")
	}
	c := RunPutBw(Options{Noise: true, Seed: 10}, 300)
	if c.MeanInjNs == a.MeanInjNs {
		t.Error("different seeds identical")
	}
}

func TestDirectCableLowersLatency(t *testing.T) {
	t.Parallel()
	switched := RunAmLat(Options{}, 200).AdjustedNs
	direct := RunAmLat(Options{DirectCable: true}, 200).AdjustedNs
	// The switch adds its forwarding latency once per one-way trip.
	if math.Abs((switched-direct)-108) > 2 {
		t.Errorf("switch delta = %.2f ns, want ~108", switched-direct)
	}
}
