package profile

import (
	"math"
	"testing"

	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/units"
	"breakband/internal/vtimer"
)

func harness() (*sim.Kernel, *Profiler) {
	k := sim.NewKernel()
	tm := vtimer.New(k, 1e12, rng.FixedNs(15), rng.FixedNs(34.69), nil)
	return k, New(tm)
}

func TestCalibration(t *testing.T) {
	k, pr := harness()
	simtest.Start(k, "cal", func(tk *sim.Task) {
		sum := pr.Calibrate(tk, 100)
		if math.Abs(sum.Mean-49.69) > 1e-9 {
			t.Errorf("calibrated overhead = %v, want 49.69", sum.Mean)
		}
		if sum.Std != 0 {
			t.Errorf("deterministic calibration std = %v", sum.Std)
		}
	})
	k.Run()
	k.Shutdown()
	if pr.Overhead() != units.Nanoseconds(49.69) {
		t.Errorf("stored overhead = %v", pr.Overhead())
	}
}

func TestCalibrationNoisy(t *testing.T) {
	k := sim.NewKernel()
	r := rng.New(7)
	tm := vtimer.New(k, 1e12, rng.LogNormalNs(15, 0.03), rng.LogNormalNs(34.69, 0.03), r)
	pr := New(tm)
	simtest.Start(k, "cal", func(tk *sim.Task) {
		sum := pr.Calibrate(tk, 1000)
		// The paper reports 49.69 mean, sigma 1.48 over 1000 samples.
		if math.Abs(sum.Mean-49.69) > 0.5 {
			t.Errorf("noisy calibration mean = %v", sum.Mean)
		}
		if sum.Std <= 0 || sum.Std > 3 {
			t.Errorf("noisy calibration std = %v", sum.Std)
		}
	})
	k.Run()
	k.Shutdown()
}

func TestOverheadRemoval(t *testing.T) {
	k, pr := harness()
	simtest.Start(k, "m", func(tk *sim.Task) {
		pr.Calibrate(tk, 10)
		d := pr.Measure(tk, "region", func() {
			tk.Advance(units.Nanoseconds(175.42))
		})
		if math.Abs(d.Ns()-175.42) > 1e-9 {
			t.Errorf("measured %v, want 175.42 after overhead removal", d.Ns())
		}
	})
	k.Run()
	k.Shutdown()
	if got := pr.MeanNs("region"); math.Abs(got-175.42) > 1e-9 {
		t.Errorf("recorded mean = %v", got)
	}
}

func TestWithoutCalibrationIncludesOverhead(t *testing.T) {
	k, pr := harness()
	simtest.Start(k, "m", func(tk *sim.Task) {
		d := pr.Measure(tk, "raw", func() { tk.Advance(100 * units.Nanosecond) })
		want := 100 + 49.69
		if math.Abs(d.Ns()-want) > 1e-9 {
			t.Errorf("uncalibrated measurement = %v, want %v", d.Ns(), want)
		}
	})
	k.Run()
	k.Shutdown()
}

func TestNegativeClamp(t *testing.T) {
	k, pr := harness()
	simtest.Start(k, "m", func(tk *sim.Task) {
		pr.Calibrate(tk, 10)
		// An empty region measures ~0 after subtraction, never negative.
		d := pr.Measure(tk, "empty", func() {})
		if d < 0 {
			t.Errorf("measured negative duration %v", d)
		}
	})
	k.Run()
	k.Shutdown()
}

func TestEndAs(t *testing.T) {
	k, pr := harness()
	simtest.Start(k, "m", func(tk *sim.Task) {
		pr.Calibrate(tk, 10)
		tok := pr.BeginAnon(tk)
		tk.Advance(50 * units.Nanosecond)
		pr.EndAs(tk, tok, "late_named")
	})
	k.Run()
	k.Shutdown()
	if math.Abs(pr.MeanNs("late_named")-50) > 1e-9 {
		t.Errorf("EndAs mean = %v", pr.MeanNs("late_named"))
	}
}

func TestNamesAndReset(t *testing.T) {
	k, pr := harness()
	simtest.Start(k, "m", func(tk *sim.Task) {
		pr.Measure(tk, "a", func() {})
		pr.Measure(tk, "b", func() {})
		pr.Measure(tk, "a", func() {})
	})
	k.Run()
	k.Shutdown()
	names := pr.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
	if pr.Sample("a").N() != 2 {
		t.Errorf("scope a has %d samples", pr.Sample("a").N())
	}
	pr.Reset()
	if pr.Sample("a") != nil || len(pr.Names()) != 0 {
		t.Error("Reset did not clear samples")
	}
}

func TestMeanNsPanicsOnUnknown(t *testing.T) {
	_, pr := harness()
	defer func() {
		if recover() == nil {
			t.Error("MeanNs on unknown scope did not panic")
		}
	}()
	pr.MeanNs("nope")
}

func TestCalibrateRequiresSamples(t *testing.T) {
	k, pr := harness()
	simtest.Start(k, "m", func(tk *sim.Task) {
		defer func() {
			if recover() == nil {
				t.Error("Calibrate(0) did not panic")
			}
		}()
		pr.Calibrate(tk, 0)
	})
	k.Run()
	k.Shutdown()
}
