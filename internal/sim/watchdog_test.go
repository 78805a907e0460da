package sim

import (
	"strings"
	"testing"
)

// pollFlagFrame models a software stack polling a completion flag: advance,
// pause, check, repeat. If the flag is never set it livelocks — the
// deliberately-stuck scenario the quiescence watchdog must attribute.
type pollFlagFrame struct {
	pc   int
	flag *bool
}

func (f *pollFlagFrame) Step(t *Task) {
	for {
		switch f.pc {
		case 0:
			if *f.flag {
				t.Return()
				return
			}
			t.Advance(100)
			f.pc = 1
			if t.Pause() {
				return
			}
		case 1:
			f.pc = 0
		}
	}
}

// callPollFrame calls pollFlagFrame as a sub-frame, so the stuck stack has
// depth 2 and the watchdog names the innermost frame.
type callPollFrame struct {
	pc   int
	flag *bool
}

func (f *callPollFrame) Step(t *Task) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			t.Call(&pollFlagFrame{flag: f.flag})
			return
		case 1:
			t.Return()
			return
		}
	}
}

// TestWatchdogNamesStuckTask: a deliberately-stuck scenario — one task polls
// a flag nobody sets while another terminates cleanly — must produce a
// stall report naming exactly the blocked task and its pause site (frame
// type and stack depth).
func TestWatchdogNamesStuckTask(t *testing.T) {
	k := NewKernel()
	var never, soon bool
	k.SpawnTask("stuck.poller", &callPollFrame{flag: &never})
	k.SpawnTask("clean.poller", &pollFlagFrame{flag: &soon})
	k.At(500, func() { soon = true })

	k.RunUntil(100_000)

	stuck := k.StuckTasks()
	if len(stuck) != 1 {
		t.Fatalf("StuckTasks = %d tasks, want exactly the poller", len(stuck))
	}
	rep := k.StallReport()
	if rep == "" {
		t.Fatal("empty stall report with a livelocked task")
	}
	t.Logf("report:\n%s", rep)
	if !strings.Contains(rep, "stuck.poller") {
		t.Errorf("report does not name the blocked task:\n%s", rep)
	}
	if !strings.Contains(rep, "*sim.pollFlagFrame") {
		t.Errorf("report does not name the pause-site frame type:\n%s", rep)
	}
	if !strings.Contains(rep, "stack depth 2") {
		t.Errorf("report does not carry the stack depth:\n%s", rep)
	}
	if strings.Contains(rep, "clean.poller") {
		t.Errorf("report names a task that terminated cleanly:\n%s", rep)
	}
}

// TestWatchdogCleanAfterDrain: a fully-drained run reports nothing — the
// watchdog's no-false-positive side.
func TestWatchdogCleanAfterDrain(t *testing.T) {
	k := NewKernel()
	var flag bool
	k.SpawnTask("poller", &pollFlagFrame{flag: &flag})
	k.At(500, func() { flag = true })
	k.Run()
	if rep := k.StallReport(); rep != "" {
		t.Fatalf("stall report after clean drain:\n%s", rep)
	}
	if n := len(k.StuckTasks()); n != 0 {
		t.Fatalf("%d stuck tasks after clean drain", n)
	}
}

// TestWatchdogNamesParkedTask: a task parked on a wake-up that never comes
// lets the queue drain, and the stall report names it as parked.
func TestWatchdogNamesParkedTask(t *testing.T) {
	k := NewKernel()
	k.SpawnTask("parked.waiter", &parkFrame{lag: 5, unpark: func() {}})
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("%d events pending after Run", k.Pending())
	}
	rep := k.StallReport()
	for _, want := range []string{"parked.waiter", "parked in *sim.parkFrame", "stack depth 1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("stall report lacks %q:\n%s", want, rep)
		}
	}
	k.Shutdown()
}
