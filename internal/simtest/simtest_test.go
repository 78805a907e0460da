package simtest

import (
	"testing"

	"breakband/internal/sim"
)

// pauseFrame advances d, pauses once, then records that it finished.
type pauseFrame struct {
	d      sim.Time
	pc     int
	doneAt *sim.Time
}

func (f *pauseFrame) Step(t *sim.Task) {
	switch f.pc {
	case 0:
		t.Advance(f.d)
		f.pc = 1
		if t.Pause() {
			return
		}
		fallthrough
	case 1:
		*f.doneAt = t.Now()
		t.Return()
	}
}

func TestStepsRunInOrder(t *testing.T) {
	k := sim.NewKernel()
	var order []int
	step := func(i int) Step { return func(*sim.Task) { order = append(order, i) } }
	task := Start(k, "order", step(0), step(1), step(2))
	k.Run()
	if !task.Done() {
		t.Fatal("script did not finish")
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v, want [0 1 2]", order)
	}
}

func TestSubFrameCompletesBeforeNextStep(t *testing.T) {
	k := sim.NewKernel()
	subDone := sim.Time(-1)
	var nextSaw sim.Time
	Start(k, "call",
		func(t *sim.Task) { t.Call(&pauseFrame{d: 40, doneAt: &subDone}) },
		func(t *sim.Task) { nextSaw = subDone },
	)
	k.Run()
	if nextSaw != 40 {
		t.Errorf("next step saw sub-frame finish at %v, want 40 (sub-frame must return first)", nextSaw)
	}
}

func TestLagMaterializedBetweenSteps(t *testing.T) {
	k := sim.NewKernel()
	value := 0
	k.At(50, func() { value = 42 })
	var kernelNow sim.Time
	var seen int
	Start(k, "lag",
		func(t *sim.Task) { t.Advance(100) },
		func(t *sim.Task) { kernelNow, seen = k.Now(), value },
	)
	k.Run()
	if kernelNow != 100 {
		t.Errorf("kernel clock at next step = %v, want 100 (lag not materialized)", kernelNow)
	}
	if seen != 42 {
		t.Errorf("next step saw %d, want the t=50 event's 42", seen)
	}
}

func TestWhileRepeatsUntilCondFails(t *testing.T) {
	k := sim.NewKernel()
	n := 0
	var times []sim.Time
	Start(k, "while",
		While(func() bool { return n < 3 },
			func(t *sim.Task) { t.Advance(10) },
			func(t *sim.Task) { n++; times = append(times, t.Now()) },
		),
		func(t *sim.Task) { times = append(times, -1) },
	)
	k.Run()
	want := []sim.Time{10, 20, 30, -1}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}
