package breakband

import (
	"math"
	"testing"

	"breakband/internal/config"
	"breakband/internal/nic"
	"breakband/internal/node"
	"breakband/internal/perftest"
	"breakband/internal/units"
)

// TestAnalyzerPassivity asserts the DESIGN.md promise behind the paper's §3
// claim ("the overhead of the PCIe analyzer is negligible... a passive
// instrument"): attaching analyzers changes nothing about simulated timing,
// with or without noise. The tapped runs settle and clear the trace at the
// warmup boundary and fire the tap-only events an untapped link skips; the
// put_bw rate, the am_lat latency, each run's end instant and every NIC's
// counters must still match the untapped runs exactly.
func TestAnalyzerPassivity(t *testing.T) {
	t.Parallel()
	type outcome struct {
		inj, lat float64
		end      [2]units.Time // per run: put_bw, am_lat
		nics     [2][2]nic.Stats
		fired    [2]uint64
	}
	run := func(noise config.NoiseLevel, tapped bool) outcome {
		var o outcome
		for r, drive := range []func(*node.System){
			func(sys *node.System) { o.inj = perftest.PutBw(sys, perftest.Options{Iters: 500}).MeanInjNs },
			func(sys *node.System) { o.lat = perftest.AmLat(sys, perftest.Options{Iters: 200}).ReportedNs },
		} {
			sys := node.NewSystem(config.TX2CX4(noise, 1, true), 2)
			if tapped {
				for _, nd := range sys.Nodes {
					nd.AttachTap()
				}
			}
			drive(sys)
			o.end[r], o.fired[r] = sys.K.Now(), sys.K.Fired()
			for i, nd := range sys.Nodes {
				o.nics[r][i] = nd.NIC.Stats()
			}
			sys.Shutdown()
		}
		return o
	}
	for _, noise := range []config.NoiseLevel{config.NoiseOff, config.NoiseOn} {
		on, off := run(noise, true), run(noise, false)
		if on.inj != off.inj || on.lat != off.lat || on.end != off.end {
			t.Errorf("noise %d: analyzer perturbed timing: inj %v vs %v, lat %v vs %v, end %v vs %v",
				noise, on.inj, off.inj, on.lat, off.lat, on.end, off.end)
		}
		if on.nics != off.nics {
			t.Errorf("noise %d: analyzer perturbed NIC counters:\n%+v\nvs\n%+v", noise, on.nics, off.nics)
		}
		for r := range on.fired {
			if on.fired[r] <= off.fired[r] {
				t.Errorf("noise %d run %d: tapped run fired %d events, untapped %d: want more when tapped",
					noise, r, on.fired[r], off.fired[r])
			}
		}
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
	tap := sys.Nodes[0].AttachTap()
	perftest.AmLat(sys, perftest.Options{Iters: 50})
	// On the trace: downstream ping (observed arriving at the NIC) to the
	// upstream completion CQE (observed leaving the NIC) spans exactly
	// the two Network traversals of gen_completion — the PCIe legs and
	// the RC-to-MEM commit lie outside the tap window. This is the same
	// geometry the paper's Network measurement exploits.
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
