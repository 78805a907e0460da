package sim

import (
	"fmt"
	"slices"
	"testing"
)

// earlyRun is one run of the early-event property test. Items are
// labelled in creation order, and an item's coins, hashed from the label
// and the seed, decide its kind, its time and how many children a fired
// item schedules. A plain item is an event that records its label. An
// early item is a reservation at t, labelled, and an event for it at t
// plus a lead, labelled next: the reference run makes the reservation a
// real event that schedules the early event when it fires; the early run
// reserves it and schedules the early event at once with AtFor, and the
// fallback does what the reference's real event does. On some seeds the
// early run also demotes early events from later items, as a reader ahead
// of the reservation does.
type earlyRun struct {
	k      *Kernel
	seed   uint64
	early  bool
	demote bool
	n      int
	order  []int               // labels in firing order
	out    map[int]Reservation // early run: not yet reported due
	evs    map[int]EventRef    // early run: early events by reservation label
	due    [][2]int            // early run: (fired label, due label) pairs
	seen   [][2]int            // (fired label, outstanding label) pairs checked
	clocks []Time
	// fired counts early events that fired as queued by AtFor; fellBack
	// counts fallbacks, the reservations made real by a tie or a Demote.
	fired, fellBack int
}

const earlyItems = 300

func (r *earlyRun) coin(label int, salt uint64) uint64 {
	return mix64(r.seed ^ uint64(label)<<8 ^ salt)
}

func (r *earlyRun) item(at Time) {
	if r.n >= earlyItems {
		return
	}
	label := r.n
	r.n++
	if r.coin(label, 1)%3 != 0 {
		r.k.At(at, func() { r.fire(label) })
		return
	}
	child := r.n
	r.n++
	ev := at + Time(r.coin(label, 5)%4)
	fire := func(any) { r.fire(child) }
	if !r.early {
		r.k.At(at, func() {
			r.order = append(r.order, label)
			r.k.AtArg(ev, fire, nil)
		})
		return
	}
	res := r.k.Reserve(at)
	r.out[label] = res
	r.evs[label] = r.k.AtFor(res, ev, func(any) { r.fired++; r.fire(child) }, nil, func(any) {
		r.fellBack++
		r.order = append(r.order, label)
		r.k.AtArg(ev, fire, nil)
	})
}

func (r *earlyRun) fire(label int) {
	r.order = append(r.order, label)
	for l, res := range r.out {
		r.seen = append(r.seen, [2]int{label, l})
		switch {
		case r.k.Due(res):
			r.due = append(r.due, [2]int{label, l})
			delete(r.out, l)
		case r.demote && r.coin(l, uint64(label)<<20)%7 == 0:
			r.k.Demote(r.evs[l])
		}
	}
	for c := r.coin(label, 2) % 3; c > 0; c-- {
		r.item(r.k.Now() + Time(r.coin(label, 3+c)%6))
	}
}

func runEarly(seed uint64, early bool) *earlyRun {
	r := &earlyRun{k: NewKernel(), seed: seed, early: early, demote: seed%2 == 1,
		out: map[int]Reservation{}, evs: map[int]EventRef{}}
	r.k.At(0, func() {
		for i := 0; i < 40; i++ {
			r.item(Time(r.coin(-1-i, 4) % 20))
		}
	})
	for _, d := range []Time{3, 9, 9, 17} {
		r.k.RunUntil(d)
		r.clocks = append(r.clocks, r.k.Now())
	}
	r.k.Run()
	r.clocks = append(r.clocks, r.k.Now())
	return r
}

// TestEarlyEventsMatchRealEvents: over random schedules thick with ties,
// a run that queues each early event at once with AtFor fires every event
// in the order of a reference run in which the reservation's real event
// schedules it, Due agrees with that order for every outstanding
// reservation at every event, and RunUntil and Run leave the clock where
// the reference leaves it. The early run fires a reservation only when a
// tie or a Demote made it real.
func TestEarlyEventsMatchRealEvents(t *testing.T) {
	var fired, ties, demoted int
	for seed := uint64(0); seed < 40; seed++ {
		ref, got := runEarly(seed, false), runEarly(seed, true)
		pos := make(map[int]int, len(ref.order))
		for i, l := range ref.order {
			pos[l] = i
		}
		seen := map[int]bool{}
		for _, l := range got.order {
			seen[l] = true
		}
		var want []int
		for _, l := range ref.order {
			if seen[l] {
				want = append(want, l)
			}
		}
		if !slices.Equal(got.order, want) {
			t.Fatalf("seed %d: early run fired %v, reference order %v", seed, got.order, want)
		}
		if skipped := len(ref.order) - len(got.order); skipped != len(got.evs)-got.fellBack {
			t.Fatalf("seed %d: the early run fired %d fewer events than the reference, want one per reservation left unreal (%d)", seed, skipped, len(got.evs)-got.fellBack)
		}
		due := map[[2]int]bool{}
		for _, p := range got.due {
			due[p] = true
		}
		for _, p := range got.seen {
			if before := pos[p[1]] < pos[p[0]]; due[p] != before {
				t.Fatalf("seed %d: in item %d, Due(item %d) = %v, but the reference fires it %s", seed, p[0], p[1], due[p], map[bool]string{true: "before", false: "after"}[before])
			}
		}
		if !slices.Equal(got.clocks, ref.clocks) {
			t.Fatalf("seed %d: clocks after each run %v, reference %v", seed, got.clocks, ref.clocks)
		}
		fired += got.fired
		if got.demote {
			demoted += got.fellBack
		} else {
			ties += got.fellBack
		}
	}
	if fired == 0 || ties == 0 || demoted == 0 {
		t.Errorf("%d early events fired early, %d fell back on a tie and %d on a tie or Demote: the schedules exercised too little", fired, ties, demoted)
	}
}

// tieCase lands a schedule on the instant of an early event, from an event
// at when, scheduled either before or after the anchor reservation was
// taken.
type tieCase struct {
	name    string
	when    Time
	late    bool // the probe's event is scheduled after the anchor is reserved
	kind    string
	demoted bool // the anchor's early event must fall back
}

// The anchor reserves 100 and queues its early event at 150.
const (
	anchorAt Time = 100
	earlyAt  Time = 150
)

// runTie plays one tieCase and returns the fired events, each with whether
// the anchor and the probe's reservation are past there, the clock after
// RunUntil(120) and after Run, and whether the anchor fell back.
func runTie(c tieCase, early bool) (order []string, clocks []Time, fellBack bool) {
	k := NewKernel()
	var anchor, probe Reservation
	var hasProbe bool
	anchorFired := false
	note := func(s string) {
		due := anchorFired
		if early {
			due = k.Due(anchor)
		}
		order = append(order, fmt.Sprintf("%s@%v due=%v probeDue=%v", s, k.Now(), due, hasProbe && k.Due(probe)))
	}
	noteFn := func(s string) func(any) { return func(any) { note(s) } }
	// The probe's AtFor reserves at 90 when it runs before the anchor's
	// instant, 10 after its own instant otherwise, and queues its own
	// early event at 150.
	probeAnchor := Time(90)
	if c.when >= anchorAt {
		probeAnchor = c.when + 10
	}
	probeFn := func() {
		note("probe")
		switch c.kind {
		case "At":
			k.At(earlyAt, func() { note("at") })
		case "Reserve":
			probe, hasProbe = k.Reserve(earlyAt), true
			k.At(earlyAt+1, func() { note("after") })
		case "AtFor":
			if !early {
				k.At(probeAnchor, func() { k.At(earlyAt, func() { note("early2") }) })
				break
			}
			r2 := k.Reserve(probeAnchor)
			k.AtFor(r2, earlyAt, noteFn("early2"), nil, func(any) { k.At(earlyAt, func() { note("early2") }) })
		}
	}
	if !c.late {
		k.At(c.when, probeFn)
	}
	k.At(0, func() {
		if !early {
			k.At(anchorAt, func() {
				anchorFired = true
				k.At(earlyAt, func() { note("early") })
			})
		} else {
			anchor = k.Reserve(anchorAt)
			k.AtFor(anchor, earlyAt, noteFn("early"), nil, func(any) {
				fellBack = true
				k.At(earlyAt, func() { note("early") })
			})
		}
		if c.late {
			k.At(c.when, probeFn)
		}
	})
	k.RunUntil(120)
	clocks = append(clocks, k.Now())
	k.Run()
	clocks = append(clocks, k.Now())
	return order, clocks, fellBack
}

// TestGuardedInstantTies: an At, a Reserve and another early event for the
// instant of an early event, made before its reservation is due, fire or
// fall due where they would had the reservation been real: the early event
// falls back when the schedule comes from an event ordered before the
// reservation — before its instant, or at it but queued first — and
// another early event demotes it only when its own reservation comes
// first. Due agrees with the reference at every event, and RunUntil and
// Run leave the clock where the reference leaves it.
func TestGuardedInstantTies(t *testing.T) {
	var cases []tieCase
	for _, kind := range []string{"At", "Reserve", "AtFor"} {
		cases = append(cases,
			tieCase{name: kind + " before the anchor", when: 50, kind: kind, demoted: kind != "AtFor"},
			tieCase{name: kind + " at the anchor, queued first", when: anchorAt, kind: kind, demoted: true},
			tieCase{name: kind + " at the anchor, queued after", when: anchorAt, late: true, kind: kind},
			tieCase{name: kind + " after the anchor", when: 120, kind: kind},
		)
	}
	// The probe's own reservation falls at 90 before the anchor's instant,
	// so an AtFor made before it comes first; made at 100, it reserves 110
	// and comes after, whichever event made it, so it demotes nothing.
	cases[8].demoted = true
	cases[9].demoted = false
	for _, c := range cases {
		ref, refClocks, _ := runTie(c, false)
		got, clocks, fellBack := runTie(c, true)
		if !slices.Equal(got, ref) {
			t.Errorf("%s: fired\n  %v\nreference\n  %v", c.name, got, ref)
		}
		if !slices.Equal(clocks, refClocks) {
			t.Errorf("%s: clocks after RunUntil(120) and Run %v, reference %v", c.name, clocks, refClocks)
		}
		if fellBack != c.demoted {
			t.Errorf("%s: the anchor's early event fell back %v, want %v", c.name, fellBack, c.demoted)
		}
	}
}

// TestDemoteIsIdempotent: Demote makes an early event its reservation's
// real event once; a second Demote, a Demote of an event that fired, and
// one whose reservation is due change nothing.
func TestDemoteIsIdempotent(t *testing.T) {
	k := NewKernel()
	var order []string
	var ev, due EventRef
	var dueRes Reservation
	k.At(0, func() {
		r := k.Reserve(10)
		ev = k.AtFor(r, 20, func(any) { order = append(order, "early") }, nil, func(any) {
			order = append(order, "fallback")
			k.At(20, func() { order = append(order, "real") })
		})
		dueRes = k.Reserve(5)
		due = k.AtFor(dueRes, 30, func(any) { order = append(order, "due early") }, nil, func(any) {
			order = append(order, "due fallback")
		})
	})
	k.At(1, func() {
		k.Demote(ev)
		k.Demote(ev)
	})
	k.At(6, func() { k.Demote(due) })
	k.At(25, func() { k.Demote(ev) })
	k.Run()
	if want := []string{"fallback", "real", "due early"}; !slices.Equal(order, want) {
		t.Errorf("fired %v, want %v", order, want)
	}
}

func TestAtForPanics(t *testing.T) {
	k := NewKernel()
	past, later := k.Reserve(10), k.Reserve(30)
	k.At(15, func() {})
	k.RunUntil(15)
	for name, f := range map[string]func(){
		"an early event before its reservation": func() { k.AtFor(later, 20, func(any) {}, nil, func(any) {}) },
		"an early event in the past":            func() { k.AtFor(past, 12, func(any) {}, nil, func(any) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
