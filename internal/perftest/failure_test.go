package perftest

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
)

// TestDriversReportTransportErrors: at a 100% drop rate every QP exhausts
// its retries. Each driver stops posting at its first failed post, drains,
// and returns the error in Err, instead of panicking or polling forever.
// The event limit turns a hang into a fast failure.
func TestDriversReportTransportErrors(t *testing.T) {
	const eventLimit = 2_000_000
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
	one := func(nodes int, run func(sys *node.System) error) func() error {
		return func() error {
			sys := mk(nodes)()
			defer sys.Shutdown()
			return run(sys)
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"PutBw", one(2, func(sys *node.System) error { return PutBw(sys, opt).Err })},
		{"AmLat", one(2, func(sys *node.System) error { return AmLat(sys, opt).Err })},
		{"MultiPutBw", one(2, func(sys *node.System) error { return MultiPutBw(sys, 2, opt).Err })},
		{"OversubscribedPutBw", one(4, func(sys *node.System) error { return OversubscribedPutBw(sys, 0, opt).Err })},
		{"AllToAllPutBw", one(4, func(sys *node.System) error { return AllToAllPutBw(sys, opt).Err })},
		{"SaturationSweep", func() error { return SaturationSweep(mk(3), 0, []float64{0.8, 1.2}, opt, 1).Err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if err := tc.run(); err == nil {
				t.Error("Err is nil at a 100% drop rate")
			} else {
				t.Log(err)
			}
		})
	}
}
