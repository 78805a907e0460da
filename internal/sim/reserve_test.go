package sim

import (
	"slices"
	"testing"
)

// TestMaterializeFiresInReservedPlace: a reservation made between two
// events at one picosecond and materialized later fires between them, and
// before an event at that picosecond scheduled after the reservation was
// taken, exactly where an At at reservation time fires.
func TestMaterializeFiresInReservedPlace(t *testing.T) {
	for _, reserve := range []bool{false, true} {
		k := NewKernel()
		var order []string
		note := func(s string) func() { return func() { order = append(order, s) } }
		noteArg := func(a any) { order = append(order, *a.(*string)) }
		r := "r"
		var res Reservation
		k.At(0, func() {
			k.At(100, note("a"))
			if reserve {
				res = k.Reserve(100)
			} else {
				k.AtArg(100, noteArg, &r)
			}
			k.At(100, note("b"))
		})
		k.At(50, func() {
			k.At(100, note("c"))
			if reserve {
				if k.Due(res) {
					t.Error("a reservation at 100 is due at 50")
				}
				k.Materialize(res, noteArg, &r)
			}
		})
		k.Run()
		if want := []string{"a", "r", "b", "c"}; !slices.Equal(order, want) {
			t.Errorf("reserve=%v: fired %v, want %v", reserve, order, want)
		}
	}
}

// TestDueAtOneInstant: at the reserved picosecond a reservation is due in
// the events ordered after it and not in those ordered before it.
func TestDueAtOneInstant(t *testing.T) {
	k := NewKernel()
	var res Reservation
	due := map[string]bool{}
	check := func(s string) func() { return func() { due[s] = k.Due(res) } }
	k.At(0, func() {
		k.At(100, check("before"))
		res = k.Reserve(100)
		k.At(100, check("after"))
	})
	k.At(99, check("earlier"))
	k.Run()
	if due["earlier"] || due["before"] || !due["after"] {
		t.Errorf("due %v: want it only in the event ordered after the reservation", due)
	}
}

// TestRunClockCoversReservations: a drained Run and a RunUntil leave the
// clock where they would had every reservation been a real event.
func TestRunClockCoversReservations(t *testing.T) {
	for _, reserve := range []bool{false, true} {
		k := NewKernel()
		var early, late Reservation
		k.At(10, func() {
			if reserve {
				early, late = k.Reserve(30), k.Reserve(70)
				return
			}
			k.At(30, func() {})
			k.At(70, func() {})
		})
		k.RunUntil(50)
		if k.Now() != 30 {
			t.Errorf("reserve=%v: RunUntil(50) left the clock at %v, want 30", reserve, k.Now())
		}
		if reserve && (!k.Due(early) || k.Due(late)) {
			t.Errorf("after RunUntil(50): 30 due %v, 70 due %v; want true and false", k.Due(early), k.Due(late))
		}
		k.RunUntil(20)
		if k.Now() != 30 {
			t.Errorf("reserve=%v: RunUntil(20) moved the clock to %v", reserve, k.Now())
		}
		k.Run()
		if k.Now() != 70 {
			t.Errorf("reserve=%v: Run left the clock at %v, want 70", reserve, k.Now())
		}
		if reserve && !k.Due(late) {
			t.Error("a reservation at 70 is not due after the drained Run")
		}
	}
}

// TestStopIgnoresReservations: a stopped run leaves the clock at the
// stopping event, and a reservation later at that instant is not due.
func TestStopIgnoresReservations(t *testing.T) {
	k := NewKernel()
	var same, later Reservation
	k.At(10, func() {
		same, later = k.Reserve(10), k.Reserve(40)
		k.Stop()
	})
	k.At(20, func() {})
	k.Run()
	if k.Now() != 10 || k.Due(same) || k.Due(later) {
		t.Errorf("after Stop: clock %v, due %v %v; want 10, false, false", k.Now(), k.Due(same), k.Due(later))
	}
	k.Run()
	if k.Now() != 40 || !k.Due(same) {
		t.Errorf("resumed run left the clock at %v, same-instant due %v; want 40, true", k.Now(), k.Due(same))
	}
}

func TestReservePanics(t *testing.T) {
	k := NewKernel()
	var res Reservation
	k.At(10, func() { res = k.Reserve(20) })
	k.Run()
	for name, f := range map[string]func(){
		"reserve in the past":   func() { k.Reserve(5) },
		"materialize a due one": func() { k.Materialize(res, func(any) {}, nil) },
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

// mix64 is splitmix64's finalizer, the per-item coin of the reservation
// property test.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// resvRun is one run of the reservation property test. Items are labelled
// in creation order; an item's coins, hashed from the label and the seed,
// decide whether it is a reservation, its time, and how many children a
// fired real item schedules. The reference run makes every item a real
// event; the reserving run reserves the reservation items, materializes
// some from a later real event, and settles the rest when Due reports
// them.
type resvRun struct {
	k       *Kernel
	seed    uint64
	reserve bool
	n       int
	order   []int               // labels in firing order
	out     map[int]Reservation // reserving run: unsettled, unmaterialized
	due     [][2]int            // reserving run: (fired label, due label) pairs
	seen    [][2]int            // (fired label, outstanding label) pairs checked
	made    int                 // reservations materialized
	clocks  []Time
}

const resvItems = 300

func (r *resvRun) coin(label int, salt uint64) uint64 {
	return mix64(r.seed ^ uint64(label)<<8 ^ salt)
}

func (r *resvRun) item(at Time) {
	if r.n >= resvItems {
		return
	}
	label := r.n
	r.n++
	if r.coin(label, 1)%3 == 0 {
		if r.reserve {
			r.out[label] = r.k.Reserve(at)
			return
		}
		r.k.At(at, func() { r.order = append(r.order, label) })
		return
	}
	r.k.At(at, func() { r.fire(label) })
}

func (r *resvRun) fire(label int) {
	r.order = append(r.order, label)
	if r.reserve {
		for l, res := range r.out {
			r.seen = append(r.seen, [2]int{label, l})
			switch {
			case r.k.Due(res):
				r.due = append(r.due, [2]int{label, l})
				delete(r.out, l)
			case r.coin(l, uint64(label)<<20)%5 == 0:
				r.k.Materialize(res, func(any) { r.order = append(r.order, l) }, nil)
				delete(r.out, l)
				r.made++
			}
		}
	}
	for c := r.coin(label, 2) % 3; c > 0; c-- {
		r.item(r.k.Now() + Time(r.coin(label, 3+c)%4))
	}
}

func runResv(seed uint64, reserve bool) *resvRun {
	r := &resvRun{k: NewKernel(), seed: seed, reserve: reserve, out: map[int]Reservation{}}
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

// TestReservationsMatchRealEvents: over random schedules with ties, a
// reserving run fires its real and materialized events in the reference
// run's order, Due agrees with that order for every outstanding
// reservation at every real event, and RunUntil and Run leave the clock
// where the reference run leaves it.
func TestReservationsMatchRealEvents(t *testing.T) {
	var settled, made int
	for seed := uint64(0); seed < 40; seed++ {
		ref, got := runResv(seed, false), runResv(seed, true)
		pos := make(map[int]int, len(ref.order))
		for i, l := range ref.order {
			pos[l] = i
		}
		fired := map[int]bool{}
		for _, l := range got.order {
			fired[l] = true
		}
		var want []int
		for _, l := range ref.order {
			if fired[l] {
				want = append(want, l)
			}
		}
		if !slices.Equal(got.order, want) {
			t.Fatalf("seed %d: reserving run fired %v, reference order %v", seed, got.order, want)
		}
		due := map[[2]int]bool{}
		for _, p := range got.due {
			due[p] = true
		}
		for _, p := range got.seen {
			if before := pos[p[1]] < pos[p[0]]; due[p] != before {
				t.Fatalf("seed %d: in item %d, Due(item %d) = %v, but the reference fires it %v", seed, p[0], p[1], due[p], map[bool]string{true: "before", false: "after"}[before])
			}
		}
		if !slices.Equal(got.clocks, ref.clocks) {
			t.Fatalf("seed %d: clocks after each run %v, reference %v", seed, got.clocks, ref.clocks)
		}
		settled += len(got.due)
		made += got.made
	}
	if settled == 0 || made == 0 {
		t.Errorf("%d reservations settled and %d materialized: the schedules exercised too little", settled, made)
	}
}

// TestReservedInstantsStayBounded: over one long run the kernel keeps only
// the reserved instants that may still lie ahead of the clock, so its
// memory follows the reservations outstanding, not those ever made.
func TestReservedInstantsStayBounded(t *testing.T) {
	k := NewKernel()
	n := 0
	var step func()
	step = func() {
		k.Reserve(k.Now() + 3)
		if n++; n < 10000 {
			k.After(2, step)
		}
	}
	k.At(0, step)
	k.Run()
	if c := cap(k.ahead); c > 8 {
		t.Errorf("the kernel holds room for %d reserved instants after %d reservations, two at a time ahead of the clock", c, n)
	}
	if want := Time(2*(n-1) + 3); k.Now() != want {
		t.Errorf("run ended at %v, want the last reservation's %v", k.Now(), want)
	}
}
