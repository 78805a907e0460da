package sim

import (
	"slices"
	"testing"
)

// TestScheduledNamesTheQueuingCall: inside an event, Scheduled reports the
// clock and place of the call that queued it, so a mark taken before or
// after that call compares accordingly.
func TestScheduledNamesTheQueuingCall(t *testing.T) {
	k := NewKernel()
	var before, after Mark
	var got Mark
	k.At(10, func() {
		before = k.Mark()
		k.At(30, func() { got = k.Scheduled() })
		after = k.Mark()
	})
	k.Run()
	if got.At() != 10 || !before.Before(got) || !got.Before(after) {
		t.Errorf("the event at 30 reports %+v; queued at 10 between marks %+v and %+v", got, before, after)
	}
	if s := k.Scheduled(); s.At() != k.Now() || !got.Before(s) {
		t.Errorf("between runs Scheduled is %+v, want the clock %v and a place after every call", s, k.Now())
	}
	// A call made further ahead than maxLead reads as made maxLead before
	// its event.
	far := Time(maxLead) + 1000
	k.At(k.Now()+far, func() { got = k.Scheduled() })
	from := k.Now()
	k.Run()
	if want := from + far - maxLead; got.At() != want {
		t.Errorf("an event queued %v ahead reports its call at %v, want %v", far, got.At(), want)
	}
}

// TestAtArgAsOfTakesTheMarkedPlace: an event queued late into a Mark's
// place fires after the events at its instant queued before the mark and
// ahead of those queued after it, including those queued after the late
// call itself.
func TestAtArgAsOfTakesTheMarkedPlace(t *testing.T) {
	k := NewKernel()
	var order []string
	note := func(a any) { order = append(order, a.(string)) }
	var m Mark
	k.At(5, func() {
		k.AtArg(50, note, "before the mark")
		m = k.Mark()
		k.AtArg(50, note, "after the mark")
	})
	k.At(20, func() {
		k.AtArgAsOf(50, m, note, "late")
		k.AtArg(50, note, "after the late call")
	})
	k.Run()
	want := []string{"before the mark", "late", "after the mark", "after the late call"}
	if !slices.Equal(order, want) {
		t.Errorf("fired %q, want %q", order, want)
	}
}

// TestAtArgAsOfInstant: placed at MarkAt(x), a late event fires after the
// events at its instant queued before x and ahead of those queued at x or
// later; with none of the latter it takes the next place.
func TestAtArgAsOfInstant(t *testing.T) {
	for _, lateFirst := range []bool{false, true} {
		k := NewKernel()
		var order []string
		note := func(a any) { order = append(order, a.(string)) }
		k.At(5, func() { k.AtArg(50, note, "queued at 5") })
		k.At(10, func() { k.AtArg(50, note, "queued at 10") })
		k.At(15, func() { k.AtArg(50, note, "queued at 15") })
		x := Time(10)
		if lateFirst {
			x = 20 // after every queuing call: the late event takes the next place
		}
		k.At(20, func() {
			k.AtArgAsOf(50, MarkAt(x), note, "late")
			k.AtArg(50, note, "queued at 20")
		})
		k.Run()
		want := []string{"queued at 5", "late", "queued at 10", "queued at 15", "queued at 20"}
		if lateFirst {
			want = []string{"queued at 5", "queued at 10", "queued at 15", "late", "queued at 20"}
		}
		if !slices.Equal(order, want) {
			t.Errorf("MarkAt(%v): fired %q, want %q", x, order, want)
		}
	}
}

// TestWakeAtTakesTheSpinsPlace: a parked task woken into the place its
// spin would have queued its resume at fires ahead of a change queued
// after that place for the same instant, though the wake itself comes
// after the change was queued.
func TestWakeAtTakesTheSpinsPlace(t *testing.T) {
	k := NewKernel()
	f := &parkFrame{unpark: func() {}}
	task := k.SpawnTask("parker", f)
	var m Mark
	sawResume := false
	k.At(1, func() { m = k.Mark() })
	k.At(3, func() { k.At(40, func() { sawResume = f.resumed == 40 }) })
	k.At(7, func() { task.WakeAt(40, m) })
	k.Run()
	if f.resumed != 40 || !sawResume {
		t.Errorf("resumed at %v, before the change %v; want 40, before it", f.resumed, sawResume)
	}
}
