package perftest

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
)

// TestDriversReportTransportErrors: at a 100% drop rate every QP exhausts
// its retries. Each driver stops posting at its first failed post, drains,
// and returns the error in Err, instead of panicking or polling forever.
// The short rows post fewer messages per QP than uct.SQDepth, so no post
// sees the failure: the drain retires it, and Err must carry it all the
// same. The event limit turns a hang into a fast failure, and a wait that
// spins through the retry timeouts instead of parking into one as well.
// No row may leave a task stuck: a side parked on its peer (am_lat's
// responder, the lossy verifier) is woken when the peer fails. The sweep
// shuts its points' systems down itself, so its row checks one of its
// points on a system the test holds.
func TestDriversReportTransportErrors(t *testing.T) {
	const eventLimit = 50_000
	mk := func(nodes int) func() *node.System {
		return func() *node.System {
			cfg := config.TX2CX4(config.NoiseOff, 1, true)
			cfg.Faults.DropRate = 1
			sys := node.NewSystem(cfg, nodes)
			sys.K.SetEventLimit(eventLimit)
			return sys
		}
	}
	opt := Options{Iters: 300, Warmup: 50}
	short := Options{Iters: 10, Warmup: 1}
	one := func(nodes int, run func(sys *node.System) error) func() (error, string) {
		return func() (error, string) {
			sys := mk(nodes)()
			defer sys.Shutdown()
			err := run(sys)
			return err, sys.K.StallReport()
		}
	}
	for _, tc := range []struct {
		name string
		run  func() (error, string)
	}{
		{"PutBw", one(2, func(sys *node.System) error { return PutBw(sys, opt).Err })},
		{"PutBwShort", one(2, func(sys *node.System) error { return PutBw(sys, short).Err })},
		{"AmLat", one(2, func(sys *node.System) error { return AmLat(sys, opt).Err })},
		{"MultiPutBw", one(2, func(sys *node.System) error { return MultiPutBw(sys, 2, opt).Err })},
		{"MultiPutBwShort", one(2, func(sys *node.System) error { return MultiPutBw(sys, 2, short).Err })},
		{"OversubscribedPutBw", one(4, func(sys *node.System) error { return OversubscribedPutBw(sys, 0, opt).Err })},
		{"OversubscribedPutBwShort", one(4, func(sys *node.System) error { return OversubscribedPutBw(sys, 0, short).Err })},
		{"AllToAllPutBw", one(4, func(sys *node.System) error { return AllToAllPutBw(sys, opt).Err })},
		{"AllToAllPutBwShort", one(4, func(sys *node.System) error { return AllToAllPutBw(sys, short).Err })},
		{"LossyPutBw", one(2, func(sys *node.System) error { return LossyPutBw(sys, opt).Err })},
		{"WindowedPutBw", one(2, func(sys *node.System) error { return WindowedPutBw(sys, 32, 64).Err })},
		{"SaturationSweep", func() (error, string) {
			err := SaturationSweep(mk(3), 0, []float64{0.8, 1.2}, 4096, 350, 1).Err
			sys := mk(3)()
			defer sys.Shutdown()
			saturationPoint(sys, 2, 1.2, SaturationBottleneck(sys.Cfg, 4096), 4096, 350)
			return err, sys.K.StallReport()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			err, stall := tc.run()
			if err == nil {
				t.Error("Err is nil at a 100% drop rate")
			} else {
				t.Log(err)
			}
			if stall != "" {
				t.Errorf("the run left tasks stuck:\n%s", stall)
			}
		})
	}
}
