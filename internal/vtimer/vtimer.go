// Package vtimer models the CPU's architected counter timer.
//
// The paper measures software with aarch64's cntvct_el0 register preceded by
// an isb barrier. We reproduce that as a virtual counter derived from the
// simulation clock: reading it costs simulated time (the isb + system-register
// read + bookkeeping), and the returned value is quantized to the counter
// frequency. The profiling infrastructure in internal/profile calibrates and
// removes that cost exactly as UCS profiling does on real hardware.
package vtimer

import (
	"math/bits"

	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// Timer is a virtual counter timer attached to a simulation kernel.
type Timer struct {
	k *sim.Kernel
	// FreqHz is the counter frequency. The ThunderX2 generic timer runs at
	// a fixed low frequency; "precise CPU timers" (which the paper's
	// methodology requires) are modelled with a 1 THz counter (1 ps
	// resolution). Lower values demonstrate quantization error.
	freqHz uint64
	// isb is the cost of the barrier executed before the counter read.
	isb rng.Dist
	// read is the cost of the register read plus recording the sample.
	read rng.Dist
	r    *rng.Rand
}

// New builds a timer. r may be nil when isb/read are deterministic.
func New(k *sim.Kernel, freqHz uint64, isb, read rng.Dist, r *rng.Rand) *Timer {
	if freqHz == 0 {
		panic("vtimer: zero frequency")
	}
	return &Timer{k: k, freqHz: freqHz, isb: isb, read: read, r: r}
}

// FreqHz reports the counter frequency.
func (t *Timer) FreqHz() uint64 { return t.freqHz }

// Counter reports the current raw counter value without any cost. It is the
// value an instantaneous observer would see; software must use Read.
func (t *Timer) Counter() uint64 {
	return t.counterAt(t.k.Now())
}

func (t *Timer) counterAt(at units.Time) uint64 {
	// ticks = at * freq / 1e12. The sub-second remainder times the
	// frequency can exceed 64 bits (it does at 1 THz), so the product is
	// computed in 128 bits.
	ps := uint64(at)
	sec := ps / 1e12
	rem := ps % 1e12
	hi, lo := bits.Mul64(rem, t.freqHz)
	frac, _ := bits.Div64(hi, lo, 1e12)
	return sec*t.freqHz + frac
}

// TicksToTime converts a tick delta to simulated time.
func (t *Timer) TicksToTime(ticks uint64) units.Time {
	return units.Time(float64(ticks) * 1e12 / float64(t.freqHz))
}

// Read performs "isb; mrs cntvct_el0" plus sample recording from task c: it
// advances virtual time by the isb cost, samples the counter, then advances
// by the read/record cost. The returned value is the counter at the instant
// between the two costs, which is how back-to-back reads measure the
// infrastructure's own overhead.
//
// Both costs are pure delays and the counter is derived arithmetic over the
// task's own clock, so Read uses the batched Advance API: profiling a
// region costs simulated time but no suspensions at all.
func (t *Timer) Read(c *sim.Task) uint64 {
	c.Advance(t.isb.Sample(t.r))
	v := t.counterAt(c.Now())
	c.Advance(t.read.Sample(t.r))
	return v
}
