package topo

import (
	"strings"
	"testing"

	"breakband/internal/faults"
	"breakband/internal/units"
)

// TestFlapFailoverAndRestore pins the fat-tree ECMP failover contract:
// while a leaf up-link is down, cross-leaf routes over it divert to a
// live spine; when it comes back, routing rehashes to exactly the
// never-faulted default.
func TestFlapFailoverAndRestore(t *testing.T) {
	down, up := units.Microseconds(10), units.Microseconds(30)
	k, fab, ports := build(t, testCfg(), Spec{Kind: FatTree}, 8)
	fab.InjectFaults(faults.MustInjector(1, faults.Config{
		Flaps: []faults.Flap{{Port: "leaf0.up1", Down: down, Up: up}},
	}))
	ports[7].ack = true

	leaf0 := fab.Switches()[0]
	// 8 hosts at radix 4: host 7 is cross-leaf, default spine 7%2=1 via
	// leaf0's up port 3 (2 down + spine index 1).
	if got := leaf0.Route(7); got != 3 {
		t.Fatalf("default route to host7 = port %d, want 3", got)
	}
	k.At(down+1, func() {
		if got := leaf0.Route(7); got != 2 {
			t.Errorf("route to host7 while spine1 uplink is down = port %d, want 2 (diverted to spine0)", got)
		}
		// Same-leaf routes never divert.
		if got := leaf0.Route(1); got != 1 {
			t.Errorf("down-route to host1 rerouted to %d", got)
		}
	})
	k.At(up+1, func() {
		if got := leaf0.Route(7); got != 3 {
			t.Errorf("route to host7 after restore = port %d, want 3 (default rehash)", got)
		}
	})
	// Traffic through the window: a frame before the flap (delivered via
	// spine1), one mid-flap (delivered via spine0), one after restore.
	sendAt(k, fab, 0, 0, 7, 8)
	sendAt(k, fab, down+units.Microseconds(2), 0, 7, 8)
	sendAt(k, fab, up+units.Microseconds(2), 0, 7, 8)
	k.Run()

	if got := len(ports[7].at); got != 3 {
		t.Fatalf("host7 saw %d deliveries, want 3 (failover must carry mid-flap traffic)", got)
	}
	var flapped *PortStat
	for _, ps := range fab.PortStats() {
		if ps.Name == "leaf0.up1" {
			p := ps
			flapped = &p
		}
	}
	if flapped == nil || flapped.Flaps != 1 {
		t.Fatalf("leaf0.up1 stats = %+v, want Flaps=1", flapped)
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("%d frames leaked", fab.InUseFrames())
	}
}

// TestFlapDropsQueuedFrames: taking a port down drops what it holds (and
// anything still pushed at it when no alternate path exists), counted on
// the link.
func TestFlapDropsQueuedFrames(t *testing.T) {
	down, up := units.Microseconds(1), units.Microseconds(1000)
	// Single switch: no path redundancy, so host1-bound frames die at the
	// dead port until it restores.
	k, fab, ports := build(t, testCfg(), Spec{Kind: SingleSwitch}, 3)
	fab.InjectFaults(faults.MustInjector(1, faults.Config{
		Flaps: []faults.Flap{{Port: "sw0.port1", Down: down, Up: up}},
	}))
	for i := 0; i < 4; i++ {
		sendAt(k, fab, down+units.Nanoseconds(100*float64(i)), 0, 1, 256)
	}
	sendAt(k, fab, up+units.Nanoseconds(100), 0, 1, 256)
	k.Run()

	if got := len(ports[1].at); got != 1 {
		t.Fatalf("host1 saw %d deliveries, want 1 (only the post-restore frame)", got)
	}
	var dropped, flaps uint64
	for _, ps := range fab.PortStats() {
		if ps.Name == "sw0.port1" {
			dropped, flaps = ps.Dropped, ps.Flaps
		}
	}
	if dropped != 4 || flaps != 1 {
		t.Errorf("sw0.port1 dropped/flaps = %d/%d, want 4/1", dropped, flaps)
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("%d frames leaked (dead-port drops must release)", fab.InUseFrames())
	}
}

// TestInjectUnknownPortPanics: a schedule naming a port the compiled
// topology does not have is a configuration bug and must panic with the
// port name, not silently never fire.
func TestInjectUnknownPortPanics(t *testing.T) {
	check := func(t *testing.T, spec Spec, hosts int, cfg faults.Config) {
		t.Helper()
		_, fab, _ := build(t, testCfg(), spec, hosts)
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("InjectFaults accepted an unknown port")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "leaf9.up9") {
				t.Errorf("panic %v does not name the port", r)
			}
		}()
		fab.InjectFaults(faults.MustInjector(1, cfg))
	}
	t.Run("scripted_drop", func(t *testing.T) {
		check(t, Spec{Kind: FatTree}, 8, faults.Config{
			DropNth: []faults.ScriptedDrop{{Port: "leaf9.up9", N: 1}},
		})
	})
	t.Run("flap", func(t *testing.T) {
		check(t, Spec{Kind: FatTree}, 8, faults.Config{
			Flaps: []faults.Flap{{Port: "leaf9.up9", Down: 1, Up: 2}},
		})
	})
	t.Run("ideal_tier", func(t *testing.T) {
		check(t, Spec{Kind: BackToBack}, 2, faults.Config{
			DropNth: []faults.ScriptedDrop{{Port: "leaf9.up9", N: 1}},
		})
	})
}

// TestIdealTierFlapPanics: the calibrated two-endpoint tier has no
// redundant paths, so a flap schedule is unsatisfiable and must panic.
func TestIdealTierFlapPanics(t *testing.T) {
	_, fab, _ := build(t, testCfg(), Spec{Kind: BackToBack}, 2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ideal tier accepted a flap schedule")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "flap") {
			t.Errorf("panic %v does not explain the flap limitation", r)
		}
	}()
	fab.InjectFaults(faults.MustInjector(1, faults.Config{
		Flaps: []faults.Flap{{Port: "host0.egress", Down: 1, Up: 2}},
	}))
}

// TestBernoulliDropsAndCorruptions: with aggressive rates on a switched
// path, the per-port counters see both fault classes, corrupted frames
// are discarded at the next store-and-forward check, and every lost frame
// still releases back to the arena.
func TestBernoulliDropsAndCorruptions(t *testing.T) {
	k, fab, ports := build(t, testCfg(), Spec{Kind: SingleSwitch}, 3)
	fab.InjectFaults(faults.MustInjector(2, faults.Config{DropRate: 0.25, CorruptRate: 0.25}))
	ports[1].ack = false
	const n = 200
	for i := 0; i < n; i++ {
		sendAt(k, fab, units.Nanoseconds(float64(i)*2000), 0, 1, 64)
	}
	k.Run()

	var dropped, corrupted uint64
	for _, ps := range fab.PortStats() {
		dropped += ps.Dropped
		corrupted += ps.Corrupted
	}
	if dropped == 0 || corrupted == 0 {
		t.Errorf("dropped/corrupted = %d/%d, want both > 0 at 25%%/25%%", dropped, corrupted)
	}
	if got := len(ports[1].at); got >= n || got == 0 {
		t.Errorf("host1 saw %d of %d frames, want some lost and some delivered", got, n)
	}
	if got := uint64(len(ports[1].at)) + dropped + corrupted; got != n {
		t.Errorf("delivered+dropped+corrupted = %d, want %d (frames must not vanish unaccounted)", got, n)
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("%d frames leaked", fab.InUseFrames())
	}
}
