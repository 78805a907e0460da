package osu

import (
	"math"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
)

func newSys(t *testing.T, noise config.NoiseLevel) *node.System {
	t.Helper()
	return node.NewSystem(config.TX2CX4(noise, 1, true), 2)
}

func TestMessageRateNearModel(t *testing.T) {
	sys := newSys(t, config.NoiseOff)
	defer sys.Shutdown()
	res := MessageRate(sys, Options{Windows: 12})
	// Paper's Equation-2 value: 264.97 ns.
	if math.Abs(res.MeanInjNs-264.97)/264.97 > 0.05 {
		t.Errorf("message-rate inverse %.2f vs 264.97", res.MeanInjNs)
	}
	if res.Messages != 12*sys.Cfg.Bench.Window {
		t.Errorf("messages = %d", res.Messages)
	}
}

func TestMessageRateBusyPosts(t *testing.T) {
	sys := newSys(t, config.NoiseOff)
	defer sys.Shutdown()
	res := MessageRate(sys, Options{Windows: 10})
	// Window (192) beyond queue depth (128): 64 busy posts per window.
	wantPerWindow := sys.Cfg.Bench.Window - sys.Cfg.Bench.SQDepth
	if int(res.BusyPosts) != 10*wantPerWindow {
		t.Errorf("busy posts = %d, want %d", res.BusyPosts, 10*wantPerWindow)
	}
	// The §6 Misc term: ~3 ns per op at these shapes (paper: 3.17).
	misc := float64(res.BusyPosts) * config.TabBusyPost / float64(res.Messages)
	if misc < 2 || misc > 4.5 {
		t.Errorf("Misc per op = %.2f ns", misc)
	}
}

func TestMessageRateWaitallAccounting(t *testing.T) {
	sys := newSys(t, config.NoiseOff)
	defer sys.Shutdown()
	res := MessageRate(sys, Options{Windows: 8})
	if res.WaitallTotalNs <= 0 {
		t.Fatal("waitall total not tracked")
	}
	// After deducting deferred LLP_posts, the §6 Post_prog lands near
	// 59.82 ns/op.
	postProg := (res.WaitallTotalNs - float64(res.BusyPosts)*config.TabLLPPost) / float64(res.Messages)
	if math.Abs(postProg-59.82)/59.82 > 0.10 {
		t.Errorf("Post_prog = %.2f ns/op, want ~59.82", postProg)
	}
}

// TestMessageRateEventsPerMessage gates the kernel events the NoiseOff
// message rate (bench's osu_mr) fires per delivered message, warmup window
// included. With no analyzer attached the PCIe links fire no tap-only
// events and no ACK arrivals: the run fires about 20.6 events per message,
// against 25.6 when every link fed a tap.
func TestMessageRateEventsPerMessage(t *testing.T) {
	const maxPerMsg = 22
	sys := newSys(t, config.NoiseOff)
	defer sys.Shutdown()
	MessageRate(sys, Options{Windows: 30})
	delivered := sys.Nodes[1].NIC.Stats().RxFrames
	if want := uint64(31 * sys.Cfg.Bench.Window); delivered != want {
		t.Fatalf("receiver took %d messages, want %d", delivered, want)
	}
	perMsg := float64(sys.K.Fired()) / float64(delivered)
	t.Logf("%d events for %d messages: %.2f per message (gate %d)", sys.K.Fired(), delivered, perMsg, maxPerMsg)
	if perMsg > maxPerMsg {
		t.Errorf("%.2f kernel events per delivered message, gate %d: does an untapped link fire tap-only events again?", perMsg, maxPerMsg)
	}
}

func TestLatencyNearModel(t *testing.T) {
	sys := newSys(t, config.NoiseOff)
	defer sys.Shutdown()
	res := Latency(sys, Options{Iters: 500})
	if math.Abs(res.ReportedNs-config.TabE2ELatencyModel)/config.TabE2ELatencyModel > 0.05 {
		t.Errorf("latency %.2f vs model %.2f", res.ReportedNs, config.TabE2ELatencyModel)
	}
	if res.RTTs.N() != 500 {
		t.Errorf("samples = %d", res.RTTs.N())
	}
}

func TestLatencyNoisyWithinTolerance(t *testing.T) {
	sys := node.NewSystem(config.TX2CX4(config.NoiseOn, 3, true), 2)
	defer sys.Shutdown()
	res := Latency(sys, Options{Iters: 500})
	if math.Abs(res.ReportedNs-config.TabE2ELatencyModel)/config.TabE2ELatencyModel > 0.07 {
		t.Errorf("noisy latency %.2f vs model %.2f", res.ReportedNs, config.TabE2ELatencyModel)
	}
}

func TestStringers(t *testing.T) {
	if (&MessageRateResult{}).String() == "" || (&LatencyResult{}).String() == "" {
		t.Error("stringers broken")
	}
}
