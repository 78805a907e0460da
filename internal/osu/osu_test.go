package osu

import (
	"math"
	"testing"

	"breakband/internal/config"
	"breakband/internal/mpi"
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

func TestSetupHookRuns(t *testing.T) {
	sys := newSys(t, config.NoiseOff)
	defer sys.Shutdown()
	called := false
	Latency(sys, Options{Iters: 50, Setup: func(r0, r1 *mpi.Rank) {
		called = true
		if r0 == nil || r1 == nil {
			t.Error("nil ranks in setup")
		}
	}})
	if !called {
		t.Error("setup hook not invoked")
	}
}

func TestStringers(t *testing.T) {
	if (&MessageRateResult{}).String() == "" || (&LatencyResult{}).String() == "" {
		t.Error("stringers broken")
	}
}
