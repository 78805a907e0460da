package breakband

import (
	"math"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/perftest"
	"breakband/internal/units"
)

// TestAnalyzerPassivity asserts the DESIGN.md promise behind the paper's §3
// claim ("the overhead of the PCIe analyzer is negligible... a passive
// instrument"): enabling or disabling the trace tap changes nothing about
// simulated timing.
func TestAnalyzerPassivity(t *testing.T) {
	t.Parallel()
	run := func(tapEnabled bool) (float64, float64) {
		sys := node.NewSystem(config.TX2CX4(config.NoiseOff, 1, true), 2)
		defer sys.Shutdown()
		sys.Nodes[0].Tap.SetEnabled(tapEnabled)
		sys.Nodes[1].Tap.SetEnabled(tapEnabled)
		pb := perftest.PutBw(sys, perftest.Options{Iters: 500})
		sysL := node.NewSystem(config.TX2CX4(config.NoiseOff, 1, true), 2)
		defer sysL.Shutdown()
		sysL.Nodes[0].Tap.SetEnabled(tapEnabled)
		lat := perftest.AmLat(sysL, perftest.Options{Iters: 200})
		return pb.MeanInjNs, lat.ReportedNs
	}
	injOn, latOn := run(true)
	injOff, latOff := run(false)
	if injOn != injOff || latOn != latOff {
		t.Errorf("analyzer perturbed timing: inj %v vs %v, lat %v vs %v",
			injOn, injOff, latOn, latOff)
	}
}

// TestGenCompletionEmergent measures the §4.2 gen_completion quantity
// directly in the simulator — from a post's arrival at the NIC to its
// completion commit — and checks the model formula against it.
func TestGenCompletionEmergent(t *testing.T) {
	t.Parallel()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	res := perftest.AmLat(sys, perftest.Options{Iters: 50, ClearTrace: true})
	_ = res
	// On the trace: downstream ping (observed arriving at the NIC) to the
	// upstream completion CQE (observed leaving the NIC) spans exactly
	// the two Network traversals of gen_completion — the PCIe legs and
	// the RC-to-MEM commit lie outside the tap window. This is the same
	// geometry the paper's Network measurement exploits.
	tap := sys.Nodes[0].Tap
	deltas := tap.PairDeltas(
		func(r record) bool { return r.IsTLP && r.Dir == pcieDown && r.TLPType == pcieMWr && r.Payload == 64 },
		func(r record) bool { return r.IsTLP && r.Dir == pcieUp && r.TLPType == pcieMWr && r.Payload == 64 },
	)
	got := deltas.Mean()
	want := 2 * config.TabNetwork
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("network share of gen_completion = %.2f ns, model %.2f", got, want)
	}
	_ = units.Nanosecond
}
