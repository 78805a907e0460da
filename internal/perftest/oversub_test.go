package perftest

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/fabric"
	"breakband/internal/node"
	"breakband/internal/topo"
)

// oversubConfig builds a single-switch NoiseOff configuration with the
// receiver rx budget set.
func oversubConfig(budget int) *config.Config {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
	cfg.NICRxBudget = budget
	return cfg
}

// TestOversubscribedBoundedAndConverged is the acceptance check for
// receiver-side backpressure: under a saturating 4 KiB incast with the rx
// budget enabled, the NIC's held-frame count and the NIC->RC pend queue
// stay bounded by the budget — the queue that grew with offered load
// before this existed — and per-sender goodput converges to the receiver's
// PCIe service rate. With the budget equal to the per-link fabric credits
// (16) arrivals are credit-gated exactly at the budget boundary, so the
// throttling is lossless: deferred frame release does all the work and no
// frame ever needs a NAK.
func TestOversubscribedBoundedAndConverged(t *testing.T) {
	const budget, senders, size = 16, 4, 4096
	sys := node.NewSystem(oversubConfig(budget), senders+1)
	defer sys.Shutdown()
	res := OversubscribedPutBw(sys, senders, Options{Iters: 400, Warmup: 250, MsgSize: size})
	t.Logf("%v", res)

	if res.MaxRxHeld > budget {
		t.Errorf("rx held high-water %d exceeds budget %d", res.MaxRxHeld, budget)
	}
	if res.MaxRxHeld != budget {
		t.Errorf("rx held high-water %d; a saturating incast should fill the budget %d", res.MaxRxHeld, budget)
	}
	if res.MaxUpPend > budget {
		t.Errorf("NIC->RC pend queue reached %d, budget %d", res.MaxUpPend, budget)
	}
	gotNs := 1e9 / res.PerSenderMsgRate
	wantNs := float64(senders) * res.ModelCycleNs
	if gotNs < wantNs || gotNs > wantNs*1.1 {
		t.Errorf("per-sender interval %.1f ns, want the receiver PCIe service time %.1f ns (+<10%%)", gotNs, wantNs)
	}
	if res.RNRNaks != 0 {
		t.Errorf("budget == credits should be losslessly credit-gated, got %d NAKs", res.RNRNaks)
	}
}

// TestOversubscribedBelowCreditsNaksAndThrottles pushes the budget below
// the fabric credit budget, so frames keep arriving while the budget is
// full and admission control — RNR NAK, sender backoff, go-back-N replay —
// carries the overload. The bound still holds; goodput sits measurably
// below the lossless PCIe rate (the replay traffic re-burns shared wire
// time — RNR throttling is expensive, exactly as on real RC transports)
// but stays within a small factor of it: throttled, not collapsed.
func TestOversubscribedBelowCreditsNaksAndThrottles(t *testing.T) {
	const budget, senders, size = 8, 4, 4096
	sys := node.NewSystem(oversubConfig(budget), senders+1)
	defer sys.Shutdown()
	res := OversubscribedPutBw(sys, senders, Options{Iters: 400, Warmup: 250, MsgSize: size})
	t.Logf("%v", res)

	if res.MaxRxHeld > budget {
		t.Errorf("rx held high-water %d exceeds budget %d", res.MaxRxHeld, budget)
	}
	if res.MaxUpPend > budget {
		t.Errorf("NIC->RC pend queue reached %d, budget %d", res.MaxUpPend, budget)
	}
	if res.RNRNaks == 0 || res.Retransmits == 0 {
		t.Errorf("overload produced no NAK/replay activity: %d NAKs, %d replays", res.RNRNaks, res.Retransmits)
	}
	if res.RetryStall == 0 {
		t.Error("no sender backoff stall time accumulated")
	}
	gotNs := 1e9 / res.PerSenderMsgRate
	floorNs := float64(senders) * res.ModelCycleNs
	if gotNs < floorNs {
		t.Errorf("per-sender interval %.1f ns beat the PCIe service floor %.1f ns", gotNs, floorNs)
	}
	if gotNs > 3*floorNs {
		t.Errorf("per-sender interval %.1f ns, want within 3x of the PCIe service floor %.1f ns", gotNs, floorNs)
	}
}

// TestOversubscribedBudgetOneLockstep is the degenerate bound: with a
// single-frame budget the receiver accepts one frame at a time and NAKs
// everything else, yet every message still gets through exactly once and
// the pend queue never holds more than that one frame's write.
func TestOversubscribedBudgetOneLockstep(t *testing.T) {
	const senders = 3
	sys := node.NewSystem(oversubConfig(1), senders+1)
	defer sys.Shutdown()
	res := OversubscribedPutBw(sys, senders, Options{Iters: 60, Warmup: 10, MsgSize: 4096})
	t.Logf("%v", res)

	if res.Messages != senders*60 {
		t.Fatalf("messages = %d, want %d", res.Messages, senders*60)
	}
	if res.PerSenderMsgRate <= 0 {
		t.Fatalf("no progress: %v", res)
	}
	if res.MaxRxHeld > 1 {
		t.Errorf("rx held high-water %d with budget 1", res.MaxRxHeld)
	}
	if res.MaxUpPend > 1 {
		t.Errorf("pend queue reached %d with budget 1", res.MaxUpPend)
	}
	if res.RNRNaks == 0 {
		t.Error("budget-1 lockstep produced no NAKs")
	}
}

// TestOversubscribedResidentBytes measures host bytes per node on the
// 8-node fat-tree incast. The endpoints allocate a 4 KiB staging slot per
// send-queue entry and 64 receive slots each, but a run backs only the
// staging slots an endpoint had in flight at once (all of them here: each
// sender keeps its send queue full), the receive slots it cycles through,
// the rings and the doorbell records, so the resident pages must stay
// below a quarter of the allocated span.
func TestOversubscribedResidentBytes(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.FatTree}
	cfg.NICRxBudget = 8
	sys := node.NewSystem(cfg, 8)
	defer sys.Shutdown()
	OversubscribedPutBw(sys, 7, Options{Iters: 200, Warmup: 20, MsgSize: 4096})
	var resident, span uint64
	for _, nd := range sys.Nodes {
		resident += nd.Mem.Resident()
		if regs := nd.Mem.Regions(); len(regs) > 0 {
			span += regs[len(regs)-1].End()
		}
	}
	t.Logf("resident %d B of a %d B allocated span over %d nodes (%d B/node)",
		resident, span, len(sys.Nodes), resident/uint64(len(sys.Nodes)))
	if resident == 0 || resident >= span/4 {
		t.Errorf("resident %d B, want nonzero and below a quarter of the %d B allocated span", resident, span)
	}
}

// TestOversubscribedEventsPerMessage gates the kernel events the NoiseOff
// 8-node fat-tree incast (seven 4 KiB senders, rx budget 8: bench's
// incast_oversub at a fifth of its iterations) fires per delivered message.
// Senders wait on a full send queue, and drain their tails, parked on
// their completion slots, and the untapped PCIe links fire no tap-only
// events and no ACK arrivals: the run fires about 55 events per message.
// Feeding a tap on every link again fires about 70; a poll loop that
// schedules one event per empty poll on top of that fires about 163.
func TestOversubscribedEventsPerMessage(t *testing.T) {
	const maxPerMsg = 60
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.FatTree}
	cfg.NICRxBudget = 8
	sys := node.NewSystem(cfg, 8)
	defer sys.Shutdown()
	OversubscribedPutBw(sys, 7, Options{Iters: 200, Warmup: 20, MsgSize: 4096})
	delivered := sys.Nodes[0].NIC.Stats().RxFrames
	if delivered != 7*220 {
		t.Fatalf("receiver took %d messages, want %d", delivered, 7*220)
	}
	perMsg := float64(sys.K.Fired()) / float64(delivered)
	t.Logf("%d events for %d messages: %.2f per message (gate %d)", sys.K.Fired(), delivered, perMsg, maxPerMsg)
	if perMsg > maxPerMsg {
		t.Errorf("%.2f kernel events per delivered message, gate %d: is a poll loop spinning again?", perMsg, maxPerMsg)
	}
}

// TestOversubscribedDeterministic pins run-to-run determinism of the
// NAK/retry machinery (backoff timers ride the ordinary event queue).
func TestOversubscribedDeterministic(t *testing.T) {
	run := func() *OversubscribedResult {
		sys := node.NewSystem(oversubConfig(8), 4)
		defer sys.Shutdown()
		return OversubscribedPutBw(sys, 3, Options{Iters: 80, Warmup: 20, MsgSize: 4096})
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.RNRNaks != b.RNRNaks || a.Retransmits != b.Retransmits {
		t.Errorf("oversubscribed run not deterministic:\n  %v\n  %v", a, b)
	}
}

// TestZeroBudgetNeverNaks pins the budget-off behaviour: with the budget
// at zero the receiver never refuses a frame — overload is absorbed
// entirely by deferred release, which caps buffering at the final-hop
// fabric credit budget (the switch queues, not the PCIe pend queue, soak
// the rest). Admission control stays completely out of the picture.
func TestZeroBudgetNeverNaks(t *testing.T) {
	sys := node.NewSystem(oversubConfig(0), 5)
	defer sys.Shutdown()
	res := OversubscribedPutBw(sys, 4, Options{Iters: 200, Warmup: 50, MsgSize: 4096})
	t.Logf("%v", res)
	if res.RNRNaks != 0 || res.Retransmits != 0 {
		t.Errorf("budget-off receiver produced NAK/retry activity: %v", res)
	}
	// Buffering fills up to the final-hop credit budget and no further.
	credits := topo.DefaultCredits
	if res.MaxRxHeld != credits {
		t.Errorf("held high-water %d, want the full credit budget %d", res.MaxRxHeld, credits)
	}
	if res.MaxUpPend > credits {
		t.Errorf("pend queue reached %d, want <= the credit budget %d", res.MaxUpPend, credits)
	}
}

// TestOversubscribedPayloadPool pins the payload buffer pool on the 8-node
// fat-tree incast (seven 4 KiB senders, rx budget 8). Each WQE holds one
// pooled buffer from execution until its acknowledgement and the release
// of its last frame and MWr TLP, which share it, so the pool peaks near the
// seven 128-entry send queues full: 828 buffers in this run (900 at the
// bench's 1100 messages per sender, when every queue fills and a few
// replayed frames outlive their ring records). Frame slots keep no payload
// bytes of their own, and every buffer returns to the pool.
func TestOversubscribedPayloadPool(t *testing.T) {
	const wantHighWater = 828
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.FatTree}
	cfg.NICRxBudget = 8
	sys := node.NewSystem(cfg, 8)
	defer sys.Shutdown()
	OversubscribedPutBw(sys, 7, Options{Iters: 200, Warmup: 20, MsgSize: 4096})
	pool := sys.Net.Payloads()
	if hw := pool.HighWater(); hw != wantHighWater {
		t.Errorf("payload pool high-water %d buffers, want %d", hw, wantHighWater)
	}
	if n := pool.InUse(); n != 0 {
		t.Errorf("%d payload buffers still held after the run", n)
	}
	// Recycled frame slots come back first, so these cover every slot the
	// run used.
	frames := make([]*fabric.Frame, 4096)
	for i := range frames {
		frames[i] = sys.Net.NewFrame()
		if p := frames[i].Payload(); cap(p) != 0 {
			t.Fatalf("frame slot %d retains %d bytes of payload capacity", i, cap(p))
		}
	}
	for _, f := range frames {
		f.Release()
	}
}
