package profile

import (
	"math"
	"testing"
	"testing/quick"

	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/units"
)

func harness() (*sim.Kernel, *Profiler) {
	return sim.NewKernel(), New(rng.FixedNs(15), rng.FixedNs(34.69), nil)
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
		sum := pr.Calibrate(tk)
		if sum.N != CalibrationSamples {
			t.Errorf("calibrated over %d samples, want %d", sum.N, CalibrationSamples)
		}
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
	pr := New(rng.LogNormalNs(15, 0.03), rng.LogNormalNs(34.69, 0.03), rng.New(7))
	simtest.Start(k, "cal", func(tk *sim.Task) {
		sum := pr.Calibrate(tk)
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
		pr.Calibrate(tk)
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
		pr.Calibrate(tk)
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
			pr.Calibrate(tk)
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

// TestReadCostsTime: between the counter values of two back-to-back reads
// lie one read/record (34.69) and one isb (15), the paper's 49.69 ns
// infrastructure overhead, and the pair costs its task two whole reads.
func TestReadCostsTime(t *testing.T) {
	k, pr := harness()
	var delta units.Time
	d := timed(k, func(tk *sim.Task) {
		t1 := pr.readTimer(tk)
		delta = pr.readTimer(tk) - t1
	})
	if delta != units.Nanoseconds(49.69) {
		t.Errorf("back-to-back read delta = %v, want 49.69ns", delta)
	}
	if d != 2*units.Nanoseconds(49.69) {
		t.Errorf("two reads took %v, want 99.38ns", d)
	}
}

// readAt returns what a timer read begun at at-isb samples, which is
// the task clock at at once the 15 ns isb has retired.
func readAt(at units.Time) units.Time {
	k, pr := harness()
	var v units.Time
	timed(k, func(tk *sim.Task) {
		tk.Advance(at - units.Nanoseconds(15))
		v = pr.readTimer(tk)
	})
	return v
}

// TestReadIsTaskClock: a read samples the reading task's virtual time in
// picoseconds, after the isb.
func TestReadIsTaskClock(t *testing.T) {
	if v := readAt(12345 * units.Nanosecond); v != 12345*units.Nanosecond {
		t.Errorf("read at 12345ns returned %v", v)
	}
}

// TestReadPastOneSecond: reads stay exact and in order past one second,
// where a counter scaled by its frequency needs 128-bit arithmetic, and
// hours in.
func TestReadPastOneSecond(t *testing.T) {
	var prev units.Time
	for _, at := range []units.Time{
		units.Second - 1, units.Second, units.Second + 1,
		5 * units.Second, 27577 * units.Second,
	} {
		v := readAt(at)
		if v != at {
			t.Errorf("read at %v returned %v", at, v)
		}
		if v < prev {
			t.Errorf("read at %v went backwards: %v < %v", at, v, prev)
		}
		prev = v
	}
}

// TestLongScopeIsExact: a scope records its region to the picosecond at
// any length. A 36,843,799 ps measurement update has a raw delta of
// 36,893,489 ps, which a float64 conversion through a counter frequency
// (ticks * 1e12 / 1e12) rounds down by one picosecond.
func TestLongScopeIsExact(t *testing.T) {
	k, pr := harness()
	pr.Select(MeasUpdate)
	timed(k, func(tk *sim.Task) {
		pr.Calibrate(tk)
		tok := pr.Begin(tk, MeasUpdate)
		tk.Advance(36_843_799)
		pr.End(tk, tok)
	})
	if got := pr.MeanNs(MeasUpdate); got != 36843.799 {
		t.Errorf("a 36843.799 ns scope recorded %.3f ns", got)
	}
}

// TestQuickScopeExact: an uncalibrated scope of any length, begun at any
// instant, records its region plus one read's overhead exactly.
func TestQuickScopeExact(t *testing.T) {
	f := func(startRaw, lenRaw uint64) bool {
		start := units.Time(startRaw % uint64(1000*units.Second))
		d := units.Time(lenRaw % uint64(1000*units.Second))
		k, pr := harness()
		pr.Select(LLPPost)
		timed(k, func(tk *sim.Task) {
			tk.Advance(start)
			tok := pr.Begin(tk, LLPPost)
			tk.Advance(d)
			pr.End(tk, tok)
		})
		return pr.MeanNs(LLPPost) == (d + units.Nanoseconds(49.69)).Ns()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
