package osu

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/ucp"
	"breakband/internal/uct"
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
	if res.Messages != 12*DefaultWindow {
		t.Errorf("messages = %d", res.Messages)
	}
}

func TestMessageRateBusyPosts(t *testing.T) {
	sys := newSys(t, config.NoiseOff)
	defer sys.Shutdown()
	res := MessageRate(sys, Options{Windows: 10})
	// Window (192) beyond queue depth (128): 64 busy posts per window.
	wantPerWindow := DefaultWindow - uct.SQDepth
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
	if want := uint64(31 * DefaultWindow); delivered != want {
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

// TestDefaultWindow: the message-rate window exceeds the send-queue depth,
// so busy posts occur (§6), and ends on a signaled isend at the default
// signal period.
func TestDefaultWindow(t *testing.T) {
	if DefaultWindow <= uct.SQDepth {
		t.Errorf("window %d does not exceed the queue depth %d: no busy posts", DefaultWindow, uct.SQDepth)
	}
	if c := config.TX2CX4(config.NoiseOff, 1, true).SignalPeriod; DefaultWindow%c != 0 {
		t.Errorf("window %d is not a multiple of the signal period %d", DefaultWindow, c)
	}
}

// TestBadOptionsPanic: options the benchmarks could only spin on or
// garble panic with a message naming the rule, before any task runs.
func TestBadOptionsPanic(t *testing.T) {
	cases := []struct {
		name string
		run  func(*node.System)
		rule string
	}{
		{"window 100", func(s *node.System) { MessageRate(s, Options{Window: 100}) }, "signal period"},
		{"window 32", func(s *node.System) { MessageRate(s, Options{Window: 32}) }, "signal period"},
		{"window -1", func(s *node.System) { MessageRate(s, Options{Window: -1}) }, "signal period"},
		{"windows -3", func(s *node.System) { MessageRate(s, Options{Windows: -3}) }, "at least one"},
		{"mr size 4089", func(s *node.System) { MessageRate(s, Options{MsgSize: ucp.MaxBcopy + 1}) }, "eager limit"},
		{"latency size 4089", func(s *node.System) { Latency(s, Options{MsgSize: ucp.MaxBcopy + 1}) }, "eager limit"},
		{"latency size -1", func(s *node.System) { Latency(s, Options{MsgSize: -1}) }, "eager limit"},
		{"latency iters -4", func(s *node.System) { Latency(s, Options{Iters: -4}) }, "at least one"},
	}
	for _, c := range cases {
		sys := newSys(t, config.NoiseOff)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.rule) {
					t.Errorf("%s: panic %q, want one naming %q", c.name, msg, c.rule)
				}
			}()
			c.run(sys)
		}()
		sys.Shutdown()
	}
}

func TestStringers(t *testing.T) {
	if (&MessageRateResult{}).String() == "" || (&LatencyResult{}).String() == "" {
		t.Error("stringers broken")
	}
}

// TestMessageRateAllocs gates what one more message of the NoiseOff
// message rate (bench's osu_mr) allocates on the host: the difference
// between a 150-window and a 50-window run, per message. An Isend
// allocates one object, the MPI request that holds its ucp request and
// is its completion callback; the eager header goes into a buffer the
// endpoint reuses, and the receiver packs each message it holds into the
// unexpected queue. Only a busy post, a third of the messages, copies its
// bytes out. A closure, a ucp request and an eager payload per Isend, and
// a heap slice per held message, cost 5 objects and 313 B per message.
func TestMessageRateAllocs(t *testing.T) {
	const maxObjects, maxBytes = 2, 160
	run := func(windows int) (objects, bytes uint64) {
		sys := newSys(t, config.NoiseOff)
		defer sys.Shutdown()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		MessageRate(sys, Options{Windows: windows})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	run(5) // warm the runtime and the config's lazily built state
	o1, b1 := run(50)
	o2, b2 := run(150)
	msgs := float64(100 * DefaultWindow)
	objects, bytes := float64(o2-o1)/msgs, float64(b2-b1)/msgs
	t.Logf("%.3f objects, %.1f B per message", objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("a message allocates %.3f objects and %.1f B, gate %d and %d B", objects, bytes, maxObjects, maxBytes)
	}
}
