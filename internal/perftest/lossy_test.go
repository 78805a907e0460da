package perftest

import (
	"strings"
	"testing"

	"breakband/internal/config"
	"breakband/internal/faults"
	"breakband/internal/node"
	"breakband/internal/topo"
	"breakband/internal/units"
)

// TestLossySweepIntegrity is the tentpole acceptance check: across the
// drop-rate ladder the transport must deliver every payload bit-exact,
// exactly once and in order, while goodput degrades smoothly — never
// corruption, duplication or reordering surfacing at the application.
func TestLossySweepIntegrity(t *testing.T) {
	rates := []float64{0, 1e-4, 1e-3, 1e-2}
	opt := Options{Iters: 1500, MsgSize: 32}
	res := LossySweep(config.TX2CX4(config.NoiseOff, 1, true), rates, opt)

	for i, r := range res {
		t.Logf("%v", r)
		if r.Err != nil {
			t.Fatalf("rate %g: %v; the retry budget should absorb this loss rate", rates[i], r.Err)
		}
		if r.Delivered != r.Total {
			t.Errorf("rate %g: %d of %d delivered", rates[i], r.Delivered, r.Total)
		}
		if r.Duplicated != 0 || r.Misordered != 0 || r.Corrupted != 0 || r.BadLength != 0 {
			t.Errorf("rate %g: integrity violated: %d dup, %d misordered, %d corrupt, %d bad length",
				rates[i], r.Duplicated, r.Misordered, r.Corrupted, r.BadLength)
		}
	}

	// The lossless baseline runs the legacy path: no injector, no
	// timeouts, no retransmissions.
	if res[0].WireDropped != 0 || res[0].WireCorrupted != 0 {
		t.Errorf("rate 0 injected faults: -%d/-%d", res[0].WireDropped, res[0].WireCorrupted)
	}
	if s := res[0].SenderStats; s.AckTimeouts != 0 || s.Retransmits != 0 || s.SeqNaksRecv != 0 {
		t.Errorf("rate 0 ran recovery machinery: %+v", s)
	}

	// The top of the ladder must actually have been lossy, with the
	// recovery machinery visibly working.
	hot := res[len(res)-1]
	if hot.WireDropped == 0 || hot.WireCorrupted == 0 {
		t.Errorf("rate 1e-2 injected -%d/-%d; the schedule did not bite", hot.WireDropped, hot.WireCorrupted)
	}
	if hot.SenderStats.Retransmits == 0 {
		t.Error("rate 1e-2 recovered without retransmitting")
	}

	// Smooth degradation: goodput must not climb as the loss rate does,
	// and the lossy end pays a real price against the lossless baseline.
	for i := 1; i < len(res); i++ {
		if res[i].GoodputMBs > res[i-1].GoodputMBs*1.02 {
			t.Errorf("goodput rose with loss: %.2f MB/s at %g vs %.2f MB/s at %g",
				res[i].GoodputMBs, rates[i], res[i-1].GoodputMBs, rates[i-1])
		}
	}
	if hot.GoodputMBs >= res[0].GoodputMBs {
		t.Errorf("1%% loss cost nothing: %.2f MB/s vs lossless %.2f MB/s", hot.GoodputMBs, res[0].GoodputMBs)
	}
}

// TestLossyTotalLossFailsCleanly: a 100% lossy link must end in a
// transport-retry-exceeded QP error surfaced to the driver in Err — not a
// hang and not a silent partial run. The stream posts fewer messages than
// the send queue holds, so no post sees the failure: the drain retires it.
func TestLossyTotalLossFailsCleanly(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Faults.DropRate = 1.0
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	res := LossyPutBw(sys, Options{Iters: 50, MsgSize: 32})
	t.Logf("%v", res)
	if res.Err == nil {
		t.Fatal("run over a dead link did not fail")
	}
	if msg := res.Err.Error(); !strings.Contains(msg, "send failed") {
		t.Errorf("Err = %q, want the sender QP's failed send", msg)
	}
	if res.Delivered != 0 {
		t.Errorf("%d messages delivered over a 100%% lossy link", res.Delivered)
	}
	if res.SenderStats.AckTimeouts == 0 {
		t.Error("no ACK timeouts before giving up")
	}
}

// TestLossyRejectsShortMessages: a message too small for the 8-byte
// sequence stamp panics naming the rule instead of running as 8 bytes.
func TestLossyRejectsShortMessages(t *testing.T) {
	sys := node.NewSystem(config.TX2CX4(config.NoiseOff, 1, true), 2)
	defer sys.Shutdown()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "size 7") || !strings.Contains(msg, "8-byte sequence stamp") {
			t.Errorf("panic %q, want one naming the size and the 8-byte sequence stamp", msg)
		}
	}()
	LossyPutBw(sys, Options{Iters: 50, MsgSize: 7})
}

// flapConfig builds the fat-tree flap scenario config: 6 hosts at radix
// 4 put the receiver (host 0) on leaf0 and two cross-leaf sender pairs
// behind leaf1/leaf2; flapping leaf1.up0 kills host 2 and 3's default
// ECMP path to host 0.
func flapConfig(flaps []faults.Flap) *config.Config {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.FatTree, Radix: 4}
	cfg.Faults.Flaps = flaps
	return cfg
}

// TestFlapIncastRecovery is the degradation payoff: an incast loses a
// leaf up-link mid-run, ECMP diverts the affected flows, the flap's
// in-flight casualties replay on timeout, and — after the link restores
// and routing rehashes back — the aggregate rate returns to the pre-fault
// steady state.
func TestFlapIncastRecovery(t *testing.T) {
	// Hosts 2..5 — the cross-leaf pairs behind leaf1 and leaf2 — stream
	// into host 0; host 1 (the receiver's leaf-mate, with a much shorter
	// path) stays idle so the flows are symmetric.
	const senders = 4
	opt := Options{Iters: 600, Warmup: 1, MsgSize: 4096}

	// Probe run with the flap scheduled far past the end (identical
	// workload, fault machinery armed but never firing) to place the real
	// flap window inside the measured phase.
	probe := node.NewSystem(flapConfig([]faults.Flap{
		{Port: "leaf1.up0", Down: units.Microseconds(1e6), Up: units.Microseconds(2e6)},
	}), 6)
	probeRes := FlapIncastPutBw(probe, senders, opt)
	probe.Shutdown()
	t.Logf("probe: %v", probeRes)

	e := probeRes.Elapsed
	down := units.Time(float64(e) * 0.25)
	up := units.Time(float64(e) * 0.45)
	sys := node.NewSystem(flapConfig([]faults.Flap{{Port: "leaf1.up0", Down: down, Up: up}}), 6)
	defer sys.Shutdown()
	res := FlapIncastPutBw(sys, senders, opt)
	t.Logf("flap:  %v", res)

	if res.Flaps != 1 {
		t.Fatalf("flaps = %d, want 1", res.Flaps)
	}
	if res.WireDropped == 0 {
		t.Error("the flap dropped nothing; the window missed the traffic")
	}
	if res.Retransmits == 0 {
		t.Error("no retransmissions; the dropped frames were never recovered")
	}
	if res.PreN == 0 || res.DipN == 0 || res.PostN == 0 {
		t.Fatalf("windows pre/dip/post = %d/%d/%d iterations; the flap window fell outside the run",
			res.PreN, res.DipN, res.PostN)
	}
	if ratio := res.PostRate / res.PreRate; ratio < 0.7 || ratio > 1.3 {
		t.Errorf("post-recovery rate is %.0f%% of the pre-fault rate; the fabric did not return to steady state",
			ratio*100)
	}
	if res.Unmeasured != nil {
		t.Errorf("a run that measures all three windows reports %v", res.Unmeasured)
	}
}

// TestFlapIncastUnmeasuredWindow: a run that ends before its post window
// opens reports that window, and the dip it cuts short, as unmeasured
// instead of passing their empty counts off as rates; the pre window it
// did measure is not named.
func TestFlapIncastUnmeasuredWindow(t *testing.T) {
	sys := node.NewSystem(flapConfig([]faults.Flap{
		{Port: "leaf1.up0", Down: units.Microseconds(100), Up: units.Microseconds(200)},
	}), 6)
	defer sys.Shutdown()
	res := FlapIncastPutBw(sys, 4, Options{Iters: 200, Warmup: 1, MsgSize: 4096})
	t.Logf("flap: %v", res)
	if res.Err != nil {
		t.Fatalf("transport error %v; Unmeasured must not stand in for Err", res.Err)
	}
	if res.Unmeasured == nil {
		t.Fatalf("post window opens at 250us, past the run's end at %v, yet nothing is reported unmeasured", res.Elapsed)
	}
	msg := res.Unmeasured.Error()
	if strings.Contains(msg, "\n") || !strings.Contains(msg, "post ") || !strings.Contains(msg, "dip ") ||
		strings.Contains(msg, "pre ") {
		t.Errorf("Unmeasured = %q, want one line naming the dip and post windows and not the measured pre window", msg)
	}
	if res.PostN != 0 || res.PreN == 0 {
		t.Errorf("pre/post = %d/%d iterations, want a measured pre window and an empty post window", res.PreN, res.PostN)
	}
}
