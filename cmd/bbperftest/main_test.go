package main

import (
	"flag"
	"strings"
	"testing"

	"breakband/internal/topo"
)

// TestCheckFlags: every flag value no command can run is rejected before a
// system is built, and in-range values pass.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
	}{
		{[]string{"put_bw"}, true},
		{[]string{"-size", "1", "put_bw"}, true},
		{[]string{"-size", "4096", "am_lat"}, true},
		{[]string{"-size", "-5", "put_bw"}, false},
		{[]string{"-size", "0", "put_bw"}, false},
		{[]string{"-size", "5000", "lossy"}, false},
		{[]string{"-size", "4097", "incast"}, false},
		{[]string{"-iters", "-5", "put_bw"}, false},
		{[]string{"-iters", "0", "put_bw"}, false},
		{[]string{"-warmup", "-1", "am_lat"}, false},
		{[]string{"-warmup", "0", "am_lat"}, false},
		{[]string{"-warmup", "1", "put_bw"}, true},
		{[]string{"-cores", "0", "multi"}, false},
		{[]string{"-cores", "-2", "multi"}, false},
		{[]string{"-cores", "1", "multi"}, true},
		{[]string{"-cores", "0", "sweep"}, true}, // an empty sweep
		{[]string{"-seeds", "-1", "chaos"}, false},
		{[]string{"-seeds", "0", "chaos"}, true},
		{[]string{"-rxbudget", "-4", "incast"}, false},
		{[]string{"-rxbudget", "8", "-size", "4096", "incast"}, true},
		{[]string{"-droprate", "2", "lossy"}, false},
		{[]string{"-droprate", "0.6", "-corruptrate", "0.6", "lossy"}, false},
		{[]string{"-droprate", "1e-3", "-corruptrate", "1e-3", "lossy"}, true},
		{[]string{"-flapdown", "300", "-flapup", "200", "flap"}, false},
		{[]string{"-flapdown", "100", "-flapup", "200", "flap"}, true},
		// One node holds 203 endpoints of the default memory: an incast
		// receiver takes one per sender, a multi receiver one per core,
		// and an all-to-all node one per peer.
		{[]string{"-nodes", "204", "incast"}, true},
		{[]string{"-nodes", "205", "incast"}, false},
		{[]string{"-nodes", "250", "incast"}, false},
		{[]string{"-cores", "203", "multi"}, true},
		{[]string{"-cores", "204", "multi"}, false},
		{[]string{"-cores", "250", "multi"}, false},
		{[]string{"-cores", "255", "sweep"}, true}, // the sweep stops at 128
		{[]string{"-cores", "256", "sweep"}, false},
		{[]string{"-nodes", "300", "alltoall"}, false},
		{[]string{"-parallel", "-1", "sweep"}, false},
		{[]string{"-parallel", "0", "sweep"}, true},
		// lossy stamps an 8-byte sequence number in every message.
		{[]string{"-size", "7", "lossy"}, false},
		{[]string{"-size", "8", "lossy"}, true},
		// A flag the command cannot honour is an error, not ignored.
		{[]string{"-record", "/tmp/t.trace", "put_bw"}, false},
		{[]string{"-replay", "/tmp/t.trace", "am_lat"}, false},
		{[]string{"-workload", "spec.yaml", "-record", "/tmp/t.trace", "workload"}, true},
		{[]string{"-workload", "spec.yaml", "-replay", "/tmp/t.trace", "workload"}, true},
		{[]string{"-workload", "spec.yaml", "put_bw"}, false},
		{[]string{"-workload", "spec.yaml", "saturate"}, true},
		// -trace exports one system's run.
		{[]string{"-trace", "/tmp/t.json", "lossy"}, false},
		{[]string{"-trace", "/tmp/t.json", "sweep"}, false},
		{[]string{"-trace", "/tmp/t.json", "chaos"}, false},
		{[]string{"-trace", "/tmp/t.json", "saturate"}, false},
		{[]string{"-trace", "/tmp/t.json", "-droprate", "1e-3", "lossy"}, true},
		{[]string{"-trace", "/tmp/t.json", "incast"}, true},
		{[]string{"-trace", "/tmp/t.json", "workload"}, true},
	}
	// A rejected flag the command cannot honour is named with the command.
	scoped := map[string]bool{"-record": true, "-replay": true, "-workload": true, "-trace": true}
	defer resetFlags(t)
	for _, c := range cases {
		resetFlags(t)
		if err := flag.CommandLine.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		test := flag.Arg(0)
		err := checkFlags(test)
		if (err == nil) != c.ok {
			t.Errorf("%v: checkFlags = %v, want ok=%v", c.args, err, c.ok)
		}
		if err == nil {
			continue
		}
		msg := err.Error()
		if strings.Contains(msg, "\n") {
			t.Errorf("%v: error spans lines: %q", c.args, err)
		}
		if scoped[c.args[0]] && (!strings.Contains(msg, c.args[0]) || !strings.Contains(msg, test)) {
			t.Errorf("%v: error %q should name %s and the %s command", c.args, msg, c.args[0], test)
		}
	}
}

// TestCheckFlapPort: a flap on a port the topology does not compile is an
// error naming the port and the topology, not a panic inside the fabric.
func TestCheckFlapPort(t *testing.T) {
	def := flag.Lookup("flapport").DefValue
	cases := []struct {
		port  string
		kind  topo.Kind
		nodes int
		ok    bool
	}{
		{def, topo.FatTree, 6, true}, // the flap command's default shape
		{"nosuch", topo.FatTree, 6, false},
		{def, topo.SingleSwitch, 4, false},
		{"sw0.port0", topo.SingleSwitch, 4, true},
		{def, topo.BackToBack, 2, false},
	}
	for _, c := range cases {
		spec := topo.Spec{Kind: c.kind}
		err := checkFlapPort(c.port, spec, c.nodes)
		if (err == nil) != c.ok {
			t.Errorf("%s on %v x%d: checkFlapPort = %v, want ok=%v", c.port, c.kind, c.nodes, err, c.ok)
			continue
		}
		if err == nil {
			continue
		}
		if msg := err.Error(); strings.Contains(msg, "\n") ||
			!strings.Contains(msg, c.port) || !strings.Contains(msg, c.kind.String()) {
			t.Errorf("%s on %v x%d: error %q should be one line naming the port and topology", c.port, c.kind, c.nodes, msg)
		}
	}
}

// resetFlags restores the command's flags (not the test binary's) to their
// defaults.
func resetFlags(t *testing.T) {
	t.Helper()
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatalf("reset -%s: %v", f.Name, err)
		}
	})
}
