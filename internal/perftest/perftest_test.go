package perftest

import (
	"math"
	"strings"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/uct"
	"breakband/internal/units"
)

func newSys(t *testing.T, noise config.NoiseLevel, seed uint64) *node.System {
	t.Helper()
	return node.NewSystem(config.TX2CX4(noise, seed, true), 2)
}

// TestPollBatch: put_bw polls every 16 posts, as the paper's perftest
// does (§4.2), which clears the §4.2 lower bound on the poll period.
func TestPollBatch(t *testing.T) {
	if pollBatch != 16 {
		t.Errorf("put_bw polls every %d posts, the paper's every 16", pollBatch)
	}
	if p := minPollPeriod(config.TX2CX4(config.NoiseOff, 1, true)); pollBatch < p {
		t.Errorf("poll batch %d below the §4.2 bound %d", pollBatch, p)
	}
}

func TestPutBwMatchesInjectionModel(t *testing.T) {
	sys := newSys(t, config.NoiseOff, 1)
	defer sys.Shutdown()
	res := PutBw(sys, Options{Iters: 2000})
	if err := relErr(res.MeanInjNs, config.TabLLPInjModel); err > 0.05 {
		t.Errorf("put_bw inverse rate %.2f vs model %.2f (%.1f%% off)",
			res.MeanInjNs, config.TabLLPInjModel, err*100)
	}
	// Steady state: roughly one busy post per successful post (paper
	// §4.2 "in the average case, after every successful LLP_post, there
	// occurs a busy post").
	ratio := float64(res.Stats.BusyPosts) / float64(res.Messages)
	if ratio < 0.85 || ratio > 1.0 {
		t.Errorf("busy posts per message = %.3f", ratio)
	}
}

func TestPutBwAnalyzerAgreesWithLoop(t *testing.T) {
	sys := newSys(t, config.NoiseOff, 1)
	defer sys.Shutdown()
	tap := sys.Nodes[0].AttachTap()
	res := PutBw(sys, Options{Iters: 1000})
	down := tap.TLPs(pcieDown(), pcieMWr(), 64, 64)
	if len(down) < 1000 {
		t.Fatalf("trace captured %d posts", len(down))
	}
	var mean float64
	for i := 1; i < len(down); i++ {
		mean += (down[i].At - down[i-1].At).Ns()
	}
	mean /= float64(len(down) - 1)
	if relErr(mean, res.MeanInjNs) > 0.02 {
		t.Errorf("analyzer mean %.2f vs loop mean %.2f", mean, res.MeanInjNs)
	}
}

func TestAmLatMatchesLatencyModel(t *testing.T) {
	sys := newSys(t, config.NoiseOff, 1)
	defer sys.Shutdown()
	res := AmLat(sys, Options{Iters: 500})
	if err := relErr(res.AdjustedNs, config.TabLLPLatencyModel); err > 0.05 {
		t.Errorf("am_lat %.2f vs model %.2f (%.1f%% off)",
			res.AdjustedNs, config.TabLLPLatencyModel, err*100)
	}
	if res.RTTs.N() != 500 {
		t.Errorf("RTT samples = %d", res.RTTs.N())
	}
}

func TestAmLatAdjustment(t *testing.T) {
	sys := newSys(t, config.NoiseOff, 1)
	defer sys.Shutdown()
	res := AmLat(sys, Options{Iters: 100})
	want := res.ReportedNs - config.TabMeasUpdate/2
	if math.Abs(res.AdjustedNs-want) > 1e-9 {
		t.Errorf("adjustment wrong: %v vs %v", res.AdjustedNs, want)
	}
}

// TestAmLatEventsPerIteration gates the kernel events an am_lat fires per
// iteration, warmup included, under both noise levels. Each side waits for
// its message in uct.Worker.StartProgressUntil, which parks on an empty
// poll, and under NoiseOn draws the skipped polls' costs when it wakes:
// about 32 events per iteration either way, against 178 (166 under
// NoiseOn) when both waits spun one event per poll. The parked polls still
// count, so each worker's polls and empty polls are the spin's.
func TestAmLatEventsPerIteration(t *testing.T) {
	const maxPerIter = 35
	for _, c := range []struct {
		name         string
		noise        config.NoiseLevel
		polls, empty [2]uint64 // initiator, responder
	}{
		{"noiseoff", config.NoiseOff, [2]uint64{76_983, 79_020}, [2]uint64{74_783, 76_821}},
		{"noiseon", config.NoiseOn, [2]uint64{76_963, 79_016}, [2]uint64{74_763, 76_817}},
	} {
		sys := newSys(t, c.noise, 1)
		res := AmLat(sys, Options{Iters: 1000, Warmup: 100})
		perIter := float64(sys.K.Fired()) / 1100
		t.Logf("%s: %d events for 1100 iterations: %.1f per iteration (gate %d)", c.name, sys.K.Fired(), perIter, maxPerIter)
		if res.Err != nil || perIter > maxPerIter {
			t.Errorf("%s: %.1f kernel events per iteration (Err %v), gate %d: does a wait spin again?", c.name, perIter, res.Err, maxPerIter)
		}
		for i, got := range []uct.Stats{res.W0.Stats, res.W1.Stats} {
			if got.Progresses != c.polls[i] || got.EmptyPolls != c.empty[i] {
				t.Errorf("%s side %d: %d polls, %d empty; the spin's %d, %d", c.name, i, got.Progresses, got.EmptyPolls, c.polls[i], c.empty[i])
			}
		}
		sys.Shutdown()
	}
}

func TestDoorbellModesAreSlower(t *testing.T) {
	lat := func(mode uct.PostMode) float64 {
		sys := newSys(t, config.NoiseOff, 1)
		defer sys.Shutdown()
		return AmLat(sys, Options{Iters: 200, Mode: mode}).AdjustedNs
	}
	pio := lat(uct.PIOInline)
	dbi := lat(uct.DoorbellInline)
	dbg := lat(uct.DoorbellGather)
	if !(pio < dbi && dbi < dbg) {
		t.Errorf("latency ordering violated: pio=%.2f doorbell=%.2f gather=%.2f", pio, dbi, dbg)
	}
	// Each extra DMA read costs a PCIe round trip plus the memory read
	// (paper §2): at least ~300 ns apiece.
	if dbi-pio < 300 || dbg-dbi < 300 {
		t.Errorf("DMA-read penalties too small: %+.2f, %+.2f", dbi-pio, dbg-dbi)
	}
}

func TestSeededNoiseReproducible(t *testing.T) {
	run := func() float64 {
		sys := newSys(t, config.NoiseOn, 42)
		defer sys.Shutdown()
		return PutBw(sys, Options{Iters: 500}).MeanInjNs
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced %v and %v", a, b)
	}
	sys := newSys(t, config.NoiseOn, 43)
	defer sys.Shutdown()
	c := PutBw(sys, Options{Iters: 500}).MeanInjNs
	if c == a {
		t.Error("different seeds produced identical timings (suspicious)")
	}
}

func TestNoisyStillNearModel(t *testing.T) {
	sys := newSys(t, config.NoiseOn, 7)
	defer sys.Shutdown()
	res := PutBw(sys, Options{Iters: 2000})
	if err := relErr(res.MeanInjNs, config.TabLLPInjModel); err > 0.07 {
		t.Errorf("noisy put_bw %.2f vs model %.2f", res.MeanInjNs, config.TabLLPInjModel)
	}
}

func TestMultiPutBwScaling(t *testing.T) {
	per := map[int]float64{}
	for _, cores := range []int{1, 4} {
		sys := newSys(t, config.NoiseOff, 1)
		res := MultiPutBw(sys, cores, Options{Iters: 500})
		per[cores] = res.PerMsgNs
		if res.Messages != cores*500 {
			t.Errorf("message count %d", res.Messages)
		}
		sys.Shutdown()
	}
	// 4 cores should be ~4x the aggregate rate (no shared bottleneck at
	// this scale).
	speedup := per[1] / per[4]
	if speedup < 3.5 || speedup > 4.5 {
		t.Errorf("4-core speedup = %.2f", speedup)
	}
}

func TestStringers(t *testing.T) {
	pb := &PutBwResult{Messages: 10, Elapsed: 1000, MsgRate: 1, MeanInjNs: 2}
	if pb.String() == "" {
		t.Error("PutBwResult string")
	}
	al := &AmLatResult{Iters: 5}
	if al.String() == "" {
		t.Error("AmLatResult string")
	}
	mp := &MultiPutBwResult{}
	if mp.String() == "" {
		t.Error("MultiPutBwResult string")
	}
}

func relErr(a, b float64) float64 { return math.Abs(a-b) / b }

// TestPutBwDeliversAboveInlineMax: put_bw and the multi-core loop post
// every size on the path it selects (short up to 32 bytes, bcopy above),
// so every warmup and measured message reaches node 1, and the bcopy path
// costs more per message than the 8-byte inline one.
func TestPutBwDeliversAboveInlineMax(t *testing.T) {
	run := func(cores, size int) (perMsgNs float64, rxFrames uint64) {
		sys := newSys(t, config.NoiseOff, 1)
		defer sys.Shutdown()
		opt := Options{Iters: 200, Warmup: 20, MsgSize: size}
		if cores == 0 {
			perMsgNs = PutBw(sys, opt).MeanInjNs
		} else {
			perMsgNs = MultiPutBw(sys, cores, opt).PerMsgNs
		}
		return perMsgNs, sys.Nodes[1].NIC.Stats().RxFrames
	}
	for _, cores := range []int{0, 2} { // 0: PutBw, one core
		base, _ := run(cores, 8)
		for _, size := range []int{33, 4096} {
			perMsg, rx := run(cores, size)
			if want := uint64(max(cores, 1) * (20 + 200)); rx != want {
				t.Errorf("cores=%d %dB: node 1 received %d frames, want %d", cores, size, rx, want)
			}
			if perMsg <= base {
				t.Errorf("cores=%d %dB: %.2f ns/msg, not above the 8B inline %.2f ns/msg", cores, size, perMsg, base)
			}
		}
	}
}

// TestAmLatAboveInlineMax: am_lat above the 32-byte inline limit sends
// bcopy active messages and completes every round trip, slower than 8 B.
func TestAmLatAboveInlineMax(t *testing.T) {
	lat := func(size int) *AmLatResult {
		sys := newSys(t, config.NoiseOff, 1)
		defer sys.Shutdown()
		return AmLat(sys, Options{Iters: 100, Warmup: 10, MsgSize: size})
	}
	base := lat(8)
	for _, size := range []int{33, 4096} {
		res := lat(size)
		if res.RTTs.N() != 100 {
			t.Errorf("%dB: %d round trips, want 100", size, res.RTTs.N())
		}
		if res.AdjustedNs <= base.AdjustedNs {
			t.Errorf("%dB: %.2f ns, not above the 8B latency %.2f ns", size, res.AdjustedNs, base.AdjustedNs)
		}
	}
}

// TestIncastStringCarriesEveryField: the one incast line reports the
// congestion fields (max switch queue, credit stalls) and the receiver
// overload fields (rx budget, held, pend, NAKs, replays, stall) together.
func TestIncastStringCarriesEveryField(t *testing.T) {
	r := &OversubscribedResult{
		Senders: 4, MsgSize: 4096, Messages: 1200, Elapsed: 1400450 * units.Nanosecond,
		PerSenderMsgRate: 214217, PerSenderBwMBs: 877.4, ModelCycleNs: 539.2,
		MaxSwitchQueue: 62, CreditStalls: 7068,
		RxBudget: 8, MaxRxHeld: 7, MaxUpPend: 6, RNRNaks: 41, Retransmits: 40, RetryStall: 84 * units.Microsecond,
	}
	s := r.String()
	for _, want := range []string{
		"incast put_bw: 4 senders x 4096B", "(rx budget 8)", "1200 msgs in 1400.450us",
		"214217 msg/s/sender", "877.4 MB/s/sender", "model 539.2 ns/msg",
		"max switch queue 62", "7068 credit stalls",
		"rx held max 7", "pend max 6", "41 RNR NAKs", "40 replays", "84.000us stalled",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("incast line lacks %q:\n%s", want, s)
		}
	}
}
