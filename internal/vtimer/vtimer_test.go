package vtimer

import (
	"testing"
	"testing/quick"

	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/units"
)

func newTimer(k *sim.Kernel, hz uint64) *Timer {
	return New(k, hz, rng.FixedNs(15), rng.FixedNs(34.69), nil)
}

func TestCounterAt1THz(t *testing.T) {
	k := sim.NewKernel()
	tm := newTimer(k, 1e12)
	k.At(12345, func() {
		if got := tm.Counter(); got != 12345 {
			t.Errorf("counter at 12345ps = %d", got)
		}
	})
	k.Run()
}

func TestCounterQuantization(t *testing.T) {
	k := sim.NewKernel()
	tm := newTimer(k, 100_000_000) // 100 MHz: one tick per 10 ns
	k.At(25*units.Nanosecond, func() {
		if got := tm.Counter(); got != 2 {
			t.Errorf("counter at 25ns @100MHz = %d, want 2", got)
		}
	})
	k.Run()
}

func TestCounterOverflowRegression(t *testing.T) {
	// Regression: at 1 THz the sub-second remainder times the frequency
	// overflows 64 bits; the 128-bit path must keep the counter exact and
	// monotonic across large times.
	k := sim.NewKernel()
	tm := newTimer(k, 1e12)
	var prev uint64
	for _, at := range []units.Time{
		units.Second - 1, units.Second, units.Second + 1,
		5 * units.Second, 27577 * units.Second,
	} {
		at := at
		k.At(at, func() {
			got := tm.Counter()
			if got != uint64(at) {
				t.Errorf("counter at %v = %d, want %d", at, got, uint64(at))
			}
			if got < prev {
				t.Errorf("counter went backwards: %d < %d", got, prev)
			}
			prev = got
		})
	}
	k.Run()
}

func TestQuickCounterMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint64, hzSel uint8) bool {
		hz := []uint64{1e6, 25e6, 100e6, 1e9, 1e12}[int(hzSel)%5]
		k := sim.NewKernel()
		tm := newTimer(k, hz)
		a := units.Time(aRaw % uint64(1000*units.Second))
		b := units.Time(bRaw % uint64(1000*units.Second))
		if a > b {
			a, b = b, a
		}
		var ca, cb uint64
		k.At(a, func() { ca = tm.Counter() })
		k.At(b, func() { cb = tm.Counter() })
		k.Run()
		return ca <= cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTicksToTime(t *testing.T) {
	k := sim.NewKernel()
	tm := newTimer(k, 100_000_000)
	if got := tm.TicksToTime(3); got != 30*units.Nanosecond {
		t.Errorf("3 ticks @100MHz = %v", got)
	}
}

func TestReadCostsTime(t *testing.T) {
	k := sim.NewKernel()
	tm := newTimer(k, 1e12)
	var v1, v2 uint64
	simtest.Start(k, "reader", func(tk *sim.Task) {
		v1 = tm.Read(tk)
		v2 = tm.Read(tk)
	})
	k.Run()
	k.Shutdown()
	// Between the two sampled instants lie one read/record (34.69) and
	// one isb (15): the paper's 49.69 ns infrastructure overhead.
	if delta := tm.TicksToTime(v2 - v1); delta != units.Nanoseconds(49.69) {
		t.Errorf("back-to-back read delta = %v, want 49.69ns", delta)
	}
}

func TestZeroFrequencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero frequency did not panic")
		}
	}()
	newTimer(sim.NewKernel(), 0)
}

func TestFreqHz(t *testing.T) {
	tm := newTimer(sim.NewKernel(), 42)
	if tm.FreqHz() != 42 {
		t.Error("FreqHz mismatch")
	}
}
