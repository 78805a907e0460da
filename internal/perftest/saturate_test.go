package perftest

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/topo"
	"breakband/internal/trace"
)

// tracedConfig builds a NoiseOff configuration with event tracing enabled.
func tracedConfig(useSwitch bool, capacity int) *config.Config {
	cfg := config.TX2CX4(config.NoiseOff, 1, useSwitch)
	cfg.TraceCapacity = capacity
	return cfg
}

// checkConservation asserts the attribution's books balance: every
// completed message's components sum to its measured latency within one
// event-time tick, and nothing the scenario injected is left dangling.
func checkConservation(t *testing.T, sys *node.System, wantMsgs int) *trace.Report {
	t.Helper()
	rep := StallReport(sys)
	if rep == nil {
		t.Fatal("tracing was enabled but StallReport returned nil")
	}
	t.Logf("\n%s", rep.Format())
	if got := len(rep.Msgs); got != wantMsgs {
		t.Errorf("attributed %d messages, want %d", got, wantMsgs)
	}
	if rep.Incomplete != 0 {
		t.Errorf("%d messages incomplete after a fully drained run", rep.Incomplete)
	}
	if worst := rep.MaxResidual(); worst > 1 {
		t.Errorf("conservation violated: max |residual| = %v, want <= 1 tick", worst)
	}
	return rep
}

// TestConservationTwoNode pins the calibration on the ideal two-endpoint
// tier for every way a configuration picks the two-node shape: the default
// (Auto), a single switch chosen on a switchless TX2CX4 config, back-to-back
// cabling chosen on a switched one, and TX2CX4 without a switch. The
// topology kind alone decides the shape. Each put_bw and am_lat run must
// decompose with zero residual, no credit stalls (the ideal tier has no
// credits) and no recovery components (no faults). Uncontended, the whole
// latency is the calibrated ideal, so a calibration that disagrees with the
// built fabric about the switch shows as an ideal share off 1.
func TestConservationTwoNode(t *testing.T) {
	withKind := func(useSwitch bool, kind topo.Kind) func() *config.Config {
		return func() *config.Config {
			cfg := tracedConfig(useSwitch, 1<<16)
			if kind != topo.Auto {
				cfg.Topology.Kind = kind
			}
			return cfg
		}
	}
	shapes := []struct {
		name string
		cfg  func() *config.Config
	}{
		{"auto", withKind(true, topo.Auto)},
		{"switch_on_direct_config", withKind(false, topo.SingleSwitch)},
		{"backtoback_on_switched_config", withKind(true, topo.BackToBack)},
		{"direct_config", withKind(false, topo.Auto)},
	}
	opt := Options{Iters: 300, Warmup: 100, MsgSize: 8}
	benches := []struct {
		name string
		run  func(sys *node.System) (msgs int)
	}{
		{"put_bw", func(sys *node.System) int {
			PutBw(sys, opt)
			return opt.Iters + opt.Warmup
		}},
		// Every ping and every pong is one message.
		{"am_lat", func(sys *node.System) int {
			AmLat(sys, opt)
			return 2 * (opt.Iters + opt.Warmup)
		}},
	}
	for _, sh := range shapes {
		for _, b := range benches {
			t.Run(sh.name+"/"+b.name, func(t *testing.T) {
				sys := node.NewSystem(sh.cfg(), 2)
				defer sys.Shutdown()
				rep := checkConservation(t, sys, b.run(sys))
				if rep.Stall != 0 {
					t.Errorf("credit stall %v on the creditless ideal tier, want 0", rep.Stall)
				}
				if rep.Backoff != 0 || rep.Waste != 0 {
					t.Errorf("recovery components (backoff %v, waste %v) on a faultless run, want 0", rep.Backoff, rep.Waste)
				}
				if share := rep.Shares()[0]; share != 1 {
					t.Errorf("ideal share %.4f on an uncontended run, want exactly 1", share)
				}
			})
		}
	}
}

// TestConservationSingleSwitch funnels four senders through one switch: the
// receiver downlink port congests, so switch queueing (and, with finite
// credits, credit stalls reaching the senders) must appear as attributed
// components — and still sum exactly.
func TestConservationSingleSwitch(t *testing.T) {
	const senders = 4
	opt := Options{Iters: 200, Warmup: 100, MsgSize: 4096}
	cfg := tracedConfig(true, 1<<18)
	cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
	sys := node.NewSystem(cfg, senders+1)
	defer sys.Shutdown()
	OversubscribedPutBw(sys, senders, opt)

	rep := checkConservation(t, sys, senders*(opt.Iters+opt.Warmup))
	if rep.Queue == 0 {
		t.Error("no switch queueing attributed under a 4:1 incast")
	}
	if rep.Backoff != 0 || rep.Waste != 0 {
		t.Errorf("recovery components (backoff %v, waste %v) on a faultless run, want 0", rep.Backoff, rep.Waste)
	}
}

// TestConservationOversubscribedIncast drops the receiver rx budget below
// the fabric credits, so admission control carries the overload: RNR NAKs,
// sender backoff and go-back-N replay. The recovery components must show up
// and the per-message books must still balance — replays stamp fresh trace
// IDs, so the final delivered flight plus the backoff/waste split covers
// the whole span from first injection.
func TestConservationOversubscribedIncast(t *testing.T) {
	const senders, budget = 4, 2
	opt := Options{Iters: 120, Warmup: 60, MsgSize: 4096}
	cfg := tracedConfig(true, 1<<19)
	cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
	cfg.NICRxBudget = budget
	sys := node.NewSystem(cfg, senders+1)
	defer sys.Shutdown()
	res := OversubscribedPutBw(sys, senders, opt)
	t.Logf("%v", res)
	if res.RNRNaks == 0 {
		t.Fatal("scenario produced no RNR NAKs; the recovery path is not exercised")
	}

	rep := checkConservation(t, sys, senders*(opt.Iters+opt.Warmup))
	if rep.Backoff == 0 {
		t.Error("no RNR backoff attributed despite RNR NAKs")
	}
	if rep.Pend == 0 {
		t.Error("no PCIe pend attributed despite a saturated receiver budget")
	}
}

// TestSaturationKnee is the analyzer's acceptance check: sweeping offered
// load across the predicted bottleneck of a 4:1 single-switch incast, the
// measured knee must land within one load step of the analytic saturation
// point (load 1.0, the receiver downlink's wire service rate).
func TestSaturationKnee(t *testing.T) {
	const senders, step = 4, 0.2
	loads := []float64{0.6, 0.8, 1.0, 1.2, 1.4}
	opt := Options{Iters: 150, Warmup: 50, MsgSize: 4096}
	mkSys := func() *node.System {
		cfg := tracedConfig(true, 1<<18)
		cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
		return node.NewSystem(cfg, senders+1)
	}
	res := SaturationSweep(mkSys, senders, loads, opt, 0)
	t.Logf("\n%s", res.Format())

	knee := res.Knee()
	if knee == nil {
		t.Fatal("sweep never saturated; expected a knee near load 1.0")
	}
	if knee.Load < 1.0-step-1e-9 || knee.Load > 1.0+step+1e-9 {
		t.Errorf("knee at load %.2f, want within one step (%.2f) of the predicted 1.0", knee.Load, step)
	}
	first := res.Points[0]
	if first.Delivered < kneeFrac*first.Offered {
		t.Errorf("lightly loaded point (%.2f) already saturated: %.0f delivered vs %.0f offered",
			first.Load, first.Delivered, first.Offered)
	}
	// Past the knee the latency decomposition must show where the time
	// goes: switch queueing plus credit stall dominates the added latency.
	last := res.Points[len(res.Points)-1]
	if last.MeanLatency <= first.MeanLatency {
		t.Errorf("mean latency did not grow across the sweep: %v -> %v", first.MeanLatency, last.MeanLatency)
	}
	if sat := last.Shares[1] + last.Shares[2]; sat < 0.10 {
		t.Errorf("queue+stall share %.1f%% past the knee, want >= 10%%", 100*sat)
	}
	if last.HotPort == "" || last.MaxQueue == 0 {
		t.Error("no hot port identified past the knee")
	}
}
