package faults

import (
	"strings"
	"testing"

	"breakband/internal/units"
)

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"drop_negative", Config{DropRate: -0.1}, "outside [0, 1]"},
		{"drop_over_one", Config{DropRate: 1.5}, "outside [0, 1]"},
		{"corrupt_negative", Config{CorruptRate: -1}, "outside [0, 1]"},
		{"corrupt_over_one", Config{CorruptRate: 2}, "outside [0, 1]"},
		{"sum_over_one", Config{DropRate: 0.6, CorruptRate: 0.6}, "exceeds 1"},
		{"script_no_port", Config{DropNth: []ScriptedDrop{{N: 1}}}, "without a port name"},
		{"script_zero_ordinal", Config{DropNth: []ScriptedDrop{{Port: "x", N: 0}}}, "1-based"},
		{"flap_no_port", Config{Flaps: []Flap{{Down: 1, Up: 2}}}, "without a port name"},
		{"flap_down_after_up", Config{Flaps: []Flap{{Port: "x", Down: 5, Up: 5}}}, ">= up"},
		{"crash_negative_node", Config{Crashes: []Crash{{Node: -1, At: 1}}}, "negative node"},
		{"crash_restart_before_crash", Config{Crashes: []Crash{{Node: 0, At: 5, RestartAt: 5}}}, "restart"},
		{"pause_negative_node", Config{Pauses: []Pause{{Node: -2, At: 1, Resume: 2}}}, "negative node"},
		{"pause_resume_before_pause", Config{Pauses: []Pause{{Node: 0, At: 5, Resume: 5}}}, "resume"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) accepted an invalid schedule", c.cfg)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
			if _, err := NewInjector(1, c.cfg); err == nil {
				t.Error("NewInjector accepted the invalid schedule")
			}
		})
	}
	ok := Config{DropRate: 0.5, CorruptRate: 0.5,
		DropNth: []ScriptedDrop{{Port: "a", N: 1}},
		Flaps:   []Flap{{Port: "b", Down: 1, Up: units.Microseconds(1)}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Error("zero Config reports enabled")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("zero Config invalid: %v", err)
	}
}

// TestDecisionsDependOnlyOnSeedPortOrdinal is the serial==parallel
// determinism contract: a link's decision sequence is a pure function of
// (seed, port name, ordinal) — other links, their creation order, and the
// interleaving of their decisions must not perturb it.
func TestDecisionsDependOnlyOnSeedPortOrdinal(t *testing.T) {
	cfg := Config{DropRate: 0.2, CorruptRate: 0.1}
	const n = 200

	seq := func(l *Link) []Outcome {
		out := make([]Outcome, n)
		for i := range out {
			out[i] = l.Decide()
		}
		return out
	}

	// Run A: one lonely link.
	a := MustInjector(7, cfg)
	want := seq(a.Link("leaf0.up1"))

	// Run B: same seed, the same link created after and interleaved with
	// two others.
	b := MustInjector(7, cfg)
	x, y := b.Link("leaf0.up0"), b.Link("spine1.port3")
	lk := b.Link("leaf0.up1")
	got := make([]Outcome, n)
	for i := range got {
		x.Decide()
		got[i] = lk.Decide()
		y.Decide()
		y.Decide()
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d differs with other links present: %v vs %v", i, got[i], want[i])
		}
	}

	// Run C: a different seed must (overwhelmingly) differ somewhere.
	c := MustInjector(8, cfg)
	diff := seq(c.Link("leaf0.up1"))
	same := true
	for i := range want {
		if diff[i] != want[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("200 decisions identical across seeds; the stream is not seed-keyed")
	}
}

// TestScriptedDropExactlyN: the scripted ordinal drops, everything else
// delivers, and the script does not shift the Bernoulli stream.
func TestScriptedDropExactlyN(t *testing.T) {
	inj := MustInjector(1, Config{DropNth: []ScriptedDrop{{Port: "p", N: 3}, {Port: "p", N: 7}}})
	lk := inj.Link("p")
	for i := 1; i <= 10; i++ {
		got := lk.Decide()
		want := Deliver
		if i == 3 || i == 7 {
			want = Drop
		}
		if got != want {
			t.Errorf("frame %d: %v, want %v", i, got, want)
		}
	}
	if lk.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", lk.Dropped)
	}

	// Ordinal alignment: with Bernoulli rates on, adding a script entry
	// leaves every non-scripted decision identical.
	plain := MustInjector(3, Config{DropRate: 0.3}).Link("q")
	scripted := MustInjector(3, Config{DropRate: 0.3, DropNth: []ScriptedDrop{{Port: "q", N: 5}}}).Link("q")
	for i := 1; i <= 50; i++ {
		p, s := plain.Decide(), scripted.Decide()
		if i == 5 {
			if s != Drop {
				t.Errorf("scripted frame 5 = %v, want Drop", s)
			}
			continue
		}
		if p != s {
			t.Errorf("frame %d: script shifted the Bernoulli stream (%v vs %v)", i, p, s)
		}
	}
}

func TestInjectorBookkeeping(t *testing.T) {
	cfg := Config{
		DropNth: []ScriptedDrop{{Port: "b", N: 1}, {Port: "a", N: 2}, {Port: "b", N: 4}},
		Flaps:   []Flap{{Port: "c", Down: 1, Up: 2}, {Port: "a", Down: 3, Up: 9}},
	}
	inj := MustInjector(1, cfg)
	if got := inj.ScriptPorts(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("ScriptPorts = %v, want [a b c]", got)
	}
	if fl := inj.FlapsFor("a"); len(fl) != 1 || fl[0].Down != 3 {
		t.Errorf("FlapsFor(a) = %v", fl)
	}
	if fl := inj.FlapsFor("b"); len(fl) != 0 {
		t.Errorf("FlapsFor(b) = %v, want none", fl)
	}
	if inj.Bernoulli() {
		t.Error("script-only schedule reports Bernoulli")
	}

	lk := inj.Link("b")
	lk.Decide() // scripted drop
	lk.Decide()
	lk.CountFlap()
	inj.Link("a").CountDrop()
	if lk2 := inj.Link("b"); lk2 != lk {
		t.Error("Link is not idempotent per name")
	}
	d, c, f := inj.Totals()
	if d != 2 || c != 0 || f != 1 {
		t.Errorf("Totals = %d/%d/%d, want 2/0/1", d, c, f)
	}
	links := inj.Links()
	if len(links) != 2 || links[0].Name != "a" || links[1].Name != "b" {
		t.Errorf("Links = %v", links)
	}
}

func TestEndpointFaultBookkeeping(t *testing.T) {
	cfg := Config{
		Crashes: []Crash{
			{Node: 3, At: units.Microseconds(5)},
			{Node: 1, At: units.Microseconds(2), RestartAt: units.Microseconds(9)},
			{Node: 3, At: units.Microseconds(20)},
		},
		Pauses: []Pause{{Node: 2, At: 1, Resume: units.Microseconds(1)}},
	}
	inj := MustInjector(1, cfg)
	if !cfg.Enabled() {
		t.Error("endpoint-only schedule reports disabled")
	}
	if cr := inj.CrashesFor(3); len(cr) != 2 || cr[0].At != units.Microseconds(5) {
		t.Errorf("CrashesFor(3) = %v, want both node-3 crashes in config order", cr)
	}
	if cr := inj.CrashesFor(0); len(cr) != 0 {
		t.Errorf("CrashesFor(0) = %v, want none", cr)
	}
	if pa := inj.PausesFor(2); len(pa) != 1 || pa[0].Resume != units.Microseconds(1) {
		t.Errorf("PausesFor(2) = %v", pa)
	}

	// Simulate the node layer counting delivered faults.
	inj.Node(3).Crashes += 2
	inj.Node(1).Crashes++
	inj.Node(2).Pauses++
	if n := inj.Node(3); n.Crashes != 2 {
		t.Error("Node is not idempotent per id")
	}
	recs := inj.NodeFaultRecords()
	if len(recs) != 3 || recs[0].Node != 1 || recs[1].Node != 2 || recs[2].Node != 3 {
		t.Fatalf("NodeFaultRecords = %v, want sorted by node id", recs)
	}
	crashes, pauses := inj.NodeTotals()
	if crashes != 3 || pauses != 1 {
		t.Errorf("NodeTotals = %d/%d, want 3/1", crashes, pauses)
	}
}

// TestDrawThenCountIsDecide: Draw returns Decide's outcome for the same
// ordinal without counting it, and Count records it as Decide does, so a
// port may draw a frame's fate when it starts the frame and count the
// fault when the frame leaves.
func TestDrawThenCountIsDecide(t *testing.T) {
	cfg := Config{DropRate: 0.2, CorruptRate: 0.1, DropNth: []ScriptedDrop{{Port: "p", N: 3}}}
	decided, drawn := MustInjector(5, cfg).Link("p"), MustInjector(5, cfg).Link("p")
	for i := 0; i < 200; i++ {
		want := decided.Decide()
		dropped, corrupted := drawn.Dropped, drawn.Corrupted
		got := drawn.Draw()
		if got != want {
			t.Fatalf("draw %d = %v, Decide = %v", i, got, want)
		}
		if drawn.Dropped != dropped || drawn.Corrupted != corrupted {
			t.Fatalf("draw %d counted its outcome", i)
		}
		drawn.Count(got)
	}
	if drawn.Dropped != decided.Dropped || drawn.Corrupted != decided.Corrupted || drawn.Sent() != decided.Sent() {
		t.Errorf("draw and count: %d dropped, %d corrupted, %d sent; Decide: %d, %d, %d",
			drawn.Dropped, drawn.Corrupted, drawn.Sent(), decided.Dropped, decided.Corrupted, decided.Sent())
	}
	if decided.Dropped == 0 || decided.Corrupted == 0 {
		t.Errorf("%d drops and %d corruptions in 200 frames: the rates exercised too little", decided.Dropped, decided.Corrupted)
	}
}
