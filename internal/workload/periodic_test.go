package workload

import (
	"bytes"
	"testing"

	"breakband/internal/config"
	"breakband/internal/rng"
	"breakband/internal/units"
)

// TestPeriodicArrivals: a periodic clock puts its first arrival one period
// after the cohort start and every later one exactly one period after the
// last, without touching the client's stream.
func TestPeriodicArrivals(t *testing.T) {
	const period = 539170 * units.Picosecond
	c := &Cohort{
		Start:    3 * units.Microsecond,
		Duration: units.Millisecond,
		Arrival:  ArrivalSpec{Process: ProcPeriodic, Rate: 1 / period.Seconds()},
	}
	clock := newArrivalClock(c)
	r := rng.Stream(5, "periodic")
	prev := c.Start
	for i := 1; i <= 1000; i++ {
		at := clock.next(prev, r)
		if want := c.Start + units.Time(i)*period; at != want {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
		prev = at
	}
	if got, want := r.Uint64(), rng.Stream(5, "periodic").Uint64(); got != want {
		t.Errorf("stream advanced: next draw %d, a fresh stream's %d", got, want)
	}
}

// TestPeriodicEnvelope: inside a factor-2 window the spacing is exactly
// half the period, and outside it the full period.
func TestPeriodicEnvelope(t *testing.T) {
	const period = 100 * units.Nanosecond
	from, to := 10*units.Microsecond, 20*units.Microsecond
	clock := clockFor(ProcPeriodic, 1/period.Seconds(), 0, []EnvelopeWindow{{From: from, To: to, Factor: 2}})
	r := rng.Stream(5, "periodic")
	prev := units.Time(0)
	for at := clock.next(prev, r); at < 30*units.Microsecond; prev, at = at, clock.next(at, r) {
		want := period
		if prev >= from && at <= to {
			want = period / 2
		}
		if at-prev != want {
			t.Fatalf("arrival at %v: %v after the last, want %v", at, at-prev, want)
		}
	}
}

// TestPeriodicRecordReplay: a 4-to-1 incast of periodic 4 KiB puts offers
// exactly its 100 arrivals per client, delivers them all, and replays into
// a byte-identical re-recording.
func TestPeriodicRecordReplay(t *testing.T) {
	const period = 2 * units.Microsecond
	spec := &Spec{
		Name:  "periodic",
		Nodes: 5,
		Cohorts: []Cohort{{
			Name:     "tick",
			Clients:  4,
			Src:      []int{1, 2, 3, 4},
			Dst:      []int{0},
			Duration: 100*period + 1,
			Arrival:  ArrivalSpec{Process: ProcPeriodic, Rate: 1 / period.Seconds()},
			Size:     SizeSpec{Dist: SizeDistFixed, Bytes: 4096},
		}},
	}
	orig := runSpec(t, spec, config.NoiseOff, 1, RunOpt{Record: true})
	c := &orig.Cohorts[0]
	if c.Offered != 400 || c.Delivered != 400 || orig.Err() != nil {
		t.Fatalf("offered %d, delivered %d, err %v; want 400 delivered of 400", c.Offered, c.Delivered, orig.Err())
	}
	if c.FirstAt != 2*units.Microsecond {
		t.Errorf("first arrival at %v, want one period after the start", c.FirstAt)
	}
	enc := orig.Trace.Encode()
	dec, err := DecodeTrace(enc)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	rep := runSpec(t, spec, config.NoiseOff, 1, RunOpt{Record: true, Replay: dec})
	if !bytes.Equal(rep.Trace.Encode(), enc) {
		t.Fatal("replayed re-recording differs from the original trace")
	}
}
