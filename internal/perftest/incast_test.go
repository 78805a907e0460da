package perftest

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/fabric"
	"breakband/internal/faults"
	"breakband/internal/node"
	"breakband/internal/topo"
	"breakband/internal/units"
	"breakband/internal/workload"
)

// incastConfig builds a single-switch N-node NoiseOff configuration.
func incastConfig(credits int) *config.Config {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.SingleSwitch, Credits: credits}
	return cfg
}

// TestIncastContention is the acceptance check for the topology layer:
// senders funnelling 4 KiB writes into one receiver over a shared switch
// port must see measurably lower per-sender bandwidth than a single
// sender on the identical path, the contended steady state must sit at
// the shared port's service rate (N serializations per delivered
// message), and the hotspot must show up as switch-port queueing.
func TestIncastContention(t *testing.T) {
	const size = 4096
	opt := Options{Iters: 400, Warmup: 250, MsgSize: size}
	run := func(nodes, senders int) *OversubscribedResult {
		sys := node.NewSystem(incastConfig(0), nodes)
		defer sys.Shutdown()
		return OversubscribedPutBw(sys, senders, opt)
	}

	solo := run(5, 1)
	four := run(5, 4)
	eight := run(9, 8)
	t.Logf("solo:  %v", solo)
	t.Logf("four:  %v", four)
	t.Logf("eight: %v", eight)

	if solo.PerSenderMsgRate <= 0 || four.PerSenderMsgRate <= 0 {
		t.Fatalf("degenerate rates: solo %v, contended %v", solo, four)
	}
	if solo.MaxSwitchQueue > 1 {
		t.Errorf("solo sender queued %d deep; uncontended path should not congest", solo.MaxSwitchQueue)
	}

	// N=4: measurably lower per-sender bandwidth than the same path
	// uncontended (the solo floor is the sender's own descriptor-fetch
	// pipeline, so the port only partially dominates at 4 senders).
	ratio4 := four.PerSenderMsgRate / solo.PerSenderMsgRate
	t.Logf("per-sender rate ratio: four %.3f, eight %.3f",
		ratio4, eight.PerSenderMsgRate/solo.PerSenderMsgRate)
	if ratio4 > 0.9 {
		t.Errorf("4-sender incast kept %.0f%% of solo per-sender bandwidth; contention is not modelled", ratio4*100)
	}
	if four.MaxSwitchQueue < 2 {
		t.Errorf("max switch queue %d under incast, want >= 2", four.MaxSwitchQueue)
	}

	// The contended steady state is the receiver draining N flows at its
	// PCIe service rate: for 4 KiB messages the posted-credit round trip
	// per MWr (PCIeWriteCycle) is slower than the shared port's wire
	// serialization, and — since deferred frame release ties the fabric
	// credits to the PCIe pend queue — the senders converge to one
	// message per N cycles, not per N serializations.
	cfg := incastConfig(0)
	cycleNs := PCIeWriteCycle(cfg, size).Ns()
	if serNs := fabric.SerTime(size).Ns(); cycleNs <= serNs {
		t.Fatalf("scenario mis-sized: PCIe cycle %.1f ns not slower than wire serialization %.1f ns", cycleNs, serNs)
	}
	for _, c := range []struct {
		res *OversubscribedResult
		n   float64
	}{{four, 4}, {eight, 8}} {
		gotNs := 1e9 / c.res.PerSenderMsgRate
		wantNs := c.n * cycleNs
		if gotNs < wantNs || gotNs > wantNs*1.1 {
			t.Errorf("%d-sender per-sender interval %.1f ns, want the receiver PCIe service time %.1f ns (+<10%%)",
				int(c.n), gotNs, wantNs)
		}
	}

	// More senders, proportionally less per-sender bandwidth.
	if r := eight.PerSenderMsgRate / four.PerSenderMsgRate; r > 0.55 {
		t.Errorf("8-sender incast kept %.0f%% of the 4-sender rate, want ~50%%", r*100)
	}
}

// TestIncastBackpressure: with a tiny credit budget the congestion
// propagates to the senders as credit stalls.
func TestIncastBackpressure(t *testing.T) {
	sys := node.NewSystem(incastConfig(2), 5)
	defer sys.Shutdown()
	res := OversubscribedPutBw(sys, 4, Options{Iters: 200, Warmup: 30, MsgSize: 4096})
	if res.CreditStalls == 0 {
		t.Errorf("no credit stalls with credits=2 under incast: %v", res)
	}
}

// TestIncastSmallMessages: 8-byte incast must still run (wire serialization
// is negligible next to the injection interval, so it stays uncongested).
func TestIncastSmallMessages(t *testing.T) {
	sys := node.NewSystem(incastConfig(0), 4)
	defer sys.Shutdown()
	res := OversubscribedPutBw(sys, 0, Options{Iters: 150, Warmup: 20})
	if res.Senders != 3 || res.Messages != 3*150 {
		t.Fatalf("senders/messages: %v", res)
	}
	if res.PerSenderMsgRate <= 0 {
		t.Fatalf("no progress: %v", res)
	}
}

// TestAllToAllFatTree drives the uniform matrix over a radix-4 fat-tree
// and requires every flow to complete deterministically.
func TestAllToAllFatTree(t *testing.T) {
	mk := func() *node.System {
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		cfg.Topology = topo.Spec{Kind: topo.FatTree}
		return node.NewSystem(cfg, 4)
	}
	run := func() *AllToAllResult {
		sys := mk()
		defer sys.Shutdown()
		return AllToAllPutBw(sys, Options{Iters: 60, Warmup: 10, MsgSize: 1024})
	}
	a, b := run(), run()
	if a.Messages != 4*3*60 {
		t.Fatalf("messages %d, want %d", a.Messages, 4*3*60)
	}
	if a.AggMsgRate <= 0 {
		t.Fatalf("no progress: %v", a)
	}
	if a.Elapsed != b.Elapsed || a.MaxSwitchQueue != b.MaxSwitchQueue {
		t.Errorf("all-to-all not deterministic: %v vs %v", a, b)
	}
	t.Logf("%v", a)
}

// TestScenarioPoolsDrained asserts the arena live-slot counters return to
// zero after each perftest scenario: a frame, TLP or payload buffer held
// past delivery is a borrow-contract violation that must fail tests, not
// grow pools.
func TestScenarioPoolsDrained(t *testing.T) {
	check := func(t *testing.T, sys *node.System) {
		t.Helper()
		if n := sys.Net.InUseFrames(); n != 0 {
			t.Errorf("fabric frame pool: %d frames still live after the run", n)
		}
		if n := sys.Net.Payloads().InUse(); n != 0 {
			t.Errorf("payload pool: %d buffers still held after the run", n)
		}
		for _, nd := range sys.Nodes {
			if tlps, dllps := nd.Link.InUsePackets(); tlps != 0 || dllps != 0 {
				t.Errorf("node%d PCIe pools: %d TLPs, %d DLLPs still live", nd.ID, tlps, dllps)
			}
		}
	}
	two := func() *node.System {
		return node.NewSystem(config.TX2CX4(config.NoiseOff, 1, true), 2)
	}

	t.Run("put_bw", func(t *testing.T) {
		sys := two()
		defer sys.Shutdown()
		PutBw(sys, Options{Iters: 100, Warmup: 20})
		check(t, sys)
	})
	t.Run("am_lat", func(t *testing.T) {
		sys := two()
		defer sys.Shutdown()
		AmLat(sys, Options{Iters: 50, Warmup: 10})
		check(t, sys)
	})
	t.Run("windowed", func(t *testing.T) {
		sys := two()
		defer sys.Shutdown()
		WindowedPutBw(sys, 16, 160)
		check(t, sys)
	})
	t.Run("multi", func(t *testing.T) {
		sys := two()
		defer sys.Shutdown()
		MultiPutBw(sys, 3, Options{Iters: 60, Warmup: 10})
		check(t, sys)
	})
	t.Run("incast", func(t *testing.T) {
		sys := node.NewSystem(incastConfig(0), 5)
		defer sys.Shutdown()
		OversubscribedPutBw(sys, 4, Options{Iters: 80, Warmup: 10, MsgSize: 4096})
		check(t, sys)
	})
	t.Run("oversub", func(t *testing.T) {
		// The NAK/retry path must not leak either: refused and discarded
		// frames release immediately, held frames release when their last
		// write issues, and replayed frames are fresh pool allocations.
		sys := node.NewSystem(oversubConfig(8), 5)
		defer sys.Shutdown()
		OversubscribedPutBw(sys, 4, Options{Iters: 80, Warmup: 10, MsgSize: 4096})
		check(t, sys)
	})
	t.Run("oversub_budget1", func(t *testing.T) {
		sys := node.NewSystem(oversubConfig(1), 4)
		defer sys.Shutdown()
		OversubscribedPutBw(sys, 3, Options{Iters: 40, Warmup: 5, MsgSize: 4096})
		check(t, sys)
	})
	t.Run("lossy", func(t *testing.T) {
		// Dropped frames, corrupt-discarded frames and retransmissions
		// must all hand their buffers back.
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		cfg.Faults.DropRate = 0.02
		cfg.Faults.CorruptRate = 0.02
		sys := node.NewSystem(cfg, 2)
		defer sys.Shutdown()
		LossyPutBw(sys, Options{Iters: 300, MsgSize: 64})
		check(t, sys)
	})
	t.Run("flap", func(t *testing.T) {
		// Frames drained from a dead port's queue release too.
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		cfg.Topology = topo.Spec{Kind: topo.FatTree, Radix: 4}
		cfg.Faults.Flaps = []faults.Flap{{
			Port: "leaf1.up0",
			Down: units.Microseconds(50), Up: units.Microseconds(150),
		}}
		sys := node.NewSystem(cfg, 6)
		defer sys.Shutdown()
		FlapIncastPutBw(sys, 4, Options{Iters: 150, Warmup: 1, MsgSize: 4096})
		check(t, sys)
	})
	t.Run("alltoall", func(t *testing.T) {
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		cfg.Topology = topo.Spec{Kind: topo.FatTree}
		sys := node.NewSystem(cfg, 8)
		defer sys.Shutdown()
		AllToAllPutBw(sys, Options{Iters: 30, Warmup: 5, MsgSize: 512})
		check(t, sys)
	})
	// Spec-compiled open-loop injectors must drain too: every generated
	// message's frames and TLPs return to their pools once the cohorts
	// finish, clean and under transport loss alike.
	wlSpec := func() *workload.Spec {
		return &workload.Spec{
			Name:     "pools",
			Nodes:    8,
			Topology: "fattree",
			Cohorts: []workload.Cohort{{
				Name:     "storm",
				Clients:  32,
				Src:      []int{1, 2, 3, 4, 5, 6, 7},
				Dst:      []int{0},
				Duration: units.Microseconds(100),
				Arrival:  workload.ArrivalSpec{Process: workload.ProcPoisson, Rate: 40e3},
				Size: workload.SizeSpec{Dist: workload.SizeDistChoice, Choices: []workload.SizeChoice{
					{Bytes: 32, Weight: 3}, {Bytes: 256, Weight: 1}}},
			}},
		}
	}
	runWl := func(t *testing.T, spec *workload.Spec) {
		sys := node.NewSystem(spec.BuildConfig(config.NoiseOff, 1), spec.Nodes)
		defer sys.Shutdown()
		if _, err := workload.Run(spec, sys, workload.RunOpt{}); err != nil {
			t.Fatal(err)
		}
		check(t, sys)
	}
	t.Run("workload", func(t *testing.T) { runWl(t, wlSpec()) })
	t.Run("workload_lossy", func(t *testing.T) {
		spec := wlSpec()
		spec.Faults = workload.FaultSpec{DropRate: 0.02, CorruptRate: 0.02}
		runWl(t, spec)
	})
}
