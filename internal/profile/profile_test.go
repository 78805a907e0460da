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

// timed runs body from a task and returns the simulated time it took.
func timed(k *sim.Kernel, body func(tk *sim.Task)) units.Time {
	var d units.Time
	simtest.Start(k, "m", func(tk *sim.Task) {
		t0 := tk.Now()
		body(tk)
		d = tk.Now() - t0
	})
	k.Run()
	k.Shutdown()
	return d
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
	pr.Select(LLPPost)
	timed(k, func(tk *sim.Task) {
		pr.Calibrate(tk, 10)
		tok := pr.Begin(tk, LLPPost)
		tk.Advance(units.Nanoseconds(175.42))
		pr.End(tk, tok)
	})
	if got := pr.MeanNs(LLPPost); math.Abs(got-175.42) > 1e-9 {
		t.Errorf("recorded mean = %v, want 175.42 after overhead removal", got)
	}
}

func TestWithoutCalibrationIncludesOverhead(t *testing.T) {
	k, pr := harness()
	pr.Select(MDSetup)
	timed(k, func(tk *sim.Task) {
		tok := pr.Begin(tk, MDSetup)
		tk.Advance(100 * units.Nanosecond)
		pr.End(tk, tok)
	})
	if got, want := pr.MeanNs(MDSetup), 100+49.69; math.Abs(got-want) > 1e-9 {
		t.Errorf("uncalibrated measurement = %v, want %v", got, want)
	}
}

func TestNegativeClamp(t *testing.T) {
	k, pr := harness()
	pr.Select(PIOCopy)
	timed(k, func(tk *sim.Task) {
		pr.Calibrate(tk, 10)
		// An empty region measures ~0 after subtraction, never negative.
		pr.End(tk, pr.Begin(tk, PIOCopy))
	})
	if got := pr.Sample(PIOCopy).Min(); got < 0 {
		t.Errorf("measured negative duration %v", got)
	}
}

// TestEndAs: a site that begins one scope of an outcome pair is
// timed when either scope is selected, and records under the outcome.
func TestEndAs(t *testing.T) {
	for _, sel := range []Scope{LLPProg, EmptyPoll} {
		k, pr := harness()
		pr.Select(sel)
		timed(k, func(tk *sim.Task) {
			pr.Calibrate(tk, 10)
			tok := pr.Begin(tk, LLPProg)
			tk.Advance(50 * units.Nanosecond)
			pr.EndAs(tk, tok, EmptyPoll)
		})
		if got := pr.MeanNs(EmptyPoll); math.Abs(got-50) > 1e-9 {
			t.Errorf("selected %v: EndAs mean = %v, want 50", sel, got)
		}
		if pr.Sample(LLPProg) != nil {
			t.Errorf("selected %v: the begun scope recorded too", sel)
		}
	}
}

// TestUnselectedScopeIsFree: beginning and ending a scope that is not
// selected reads no timer, so the task clock only moves by the region,
// allocates nothing and records nothing; the selected scope records.
func TestUnselectedScopeIsFree(t *testing.T) {
	k, pr := harness()
	pr.Select(MPIIsend)
	unselected := []Scope{MDSetup, LLPPost, LLPProg, UCPTagSendNB}
	var allocs float64
	d := timed(k, func(tk *sim.Task) {
		for _, s := range unselected {
			tok := pr.Begin(tk, s)
			tk.Advance(10 * units.Nanosecond)
			pr.EndAs(tk, tok, s.Partner())
		}
		allocs = testing.AllocsPerRun(100, func() { pr.End(tk, pr.Begin(tk, LLPPost)) })
	})
	if d != 40*units.Nanosecond {
		t.Errorf("four unselected 10 ns regions took %v, want 40ns", d)
	}
	if allocs != 0 {
		t.Errorf("an unselected scope allocates %v times per Begin/End", allocs)
	}
	for _, s := range unselected {
		if pr.Sample(s) != nil || pr.Sample(s.Partner()) != nil {
			t.Errorf("unselected scope %v recorded", s)
		}
	}

	k, pr = harness()
	pr.Select(MPIIsend)
	d = timed(k, func(tk *sim.Task) {
		pr.End(tk, pr.Begin(tk, MPIIsend))
	})
	if d != 2*units.Nanoseconds(49.69) || pr.Sample(MPIIsend).N() != 1 {
		t.Errorf("selected scope took %v with %v, want two timer reads and one sample", d, pr.Sample(MPIIsend))
	}
}

// TestSelectReplaces: a profiler times one scope; selecting another
// replaces the first, and None times nothing.
func TestSelectReplaces(t *testing.T) {
	k, pr := harness()
	if pr.Selected() != None {
		t.Fatalf("new profiler selects %v", pr.Selected())
	}
	timed(k, func(tk *sim.Task) {
		for _, sel := range []Scope{MPIWaitRecv, UCPRecvCB, None} {
			pr.Select(sel)
			for _, s := range []Scope{MPIWaitRecv, UCPRecvCB} {
				pr.End(tk, pr.Begin(tk, s))
			}
		}
	})
	if pr.Selected() != None {
		t.Errorf("selected %v after selecting None", pr.Selected())
	}
	for _, s := range []Scope{MPIWaitRecv, UCPRecvCB} {
		if n := pr.Sample(s).N(); n != 1 {
			t.Errorf("%v recorded %d samples, want 1 (only while selected)", s, n)
		}
	}
}

func TestPartnersPairBack(t *testing.T) {
	for _, s := range []Scope{LLPPost, BusyPost, LLPProg, EmptyPoll, MDSetup, MPIWaitRecv} {
		if p := s.Partner(); p.Partner() != s {
			t.Errorf("%v's partner %v does not pair back", s, p)
		}
	}
	if LLPPost.Partner() != BusyPost || LLPProg.Partner() != EmptyPoll || MDSetup.Partner() != MDSetup {
		t.Error("outcome pairs changed")
	}
}

func TestMeanNsPanicsOnUnknown(t *testing.T) {
	_, pr := harness()
	defer func() {
		if recover() == nil {
			t.Error("MeanNs on unknown scope did not panic")
		}
	}()
	pr.MeanNs(LLPPost)
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
