package main

import (
	"flag"
	"strings"
	"testing"

	"breakband/internal/topo"
)

// TestCheckFlags: every flag value no command can run, and every flag the
// command does not read, is rejected before a system is built; in-range
// values of the command's own flags pass.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
		// flag, when set, is the flag a rejection must name, with the
		// command, because the command does not read it.
		flag string
	}{
		{args: []string{"put_bw"}, ok: true},
		{args: []string{"-size", "1", "put_bw"}, ok: true},
		{args: []string{"-size", "4096", "am_lat"}, ok: true},
		{args: []string{"-size", "-5", "put_bw"}},
		{args: []string{"-size", "0", "put_bw"}},
		{args: []string{"-size", "5000", "lossy"}},
		{args: []string{"-size", "4097", "incast"}},
		{args: []string{"-iters", "-5", "put_bw"}},
		{args: []string{"-iters", "0", "put_bw"}},
		{args: []string{"-warmup", "-1", "am_lat"}},
		{args: []string{"-warmup", "0", "am_lat"}},
		{args: []string{"-warmup", "1", "put_bw"}, ok: true},
		{args: []string{"-cores", "0", "multi"}},
		{args: []string{"-cores", "-2", "multi"}},
		{args: []string{"-cores", "1", "multi"}, ok: true},
		{args: []string{"-cores", "0", "sweep"}, ok: true}, // an empty sweep
		{args: []string{"-seeds", "-1", "chaos"}},
		{args: []string{"-seeds", "0", "chaos"}, ok: true},
		{args: []string{"-rxbudget", "-4", "incast"}},
		{args: []string{"-rxbudget", "8", "-size", "4096", "incast"}, ok: true},
		{args: []string{"-droprate", "2", "lossy"}},
		{args: []string{"-droprate", "0.6", "-corruptrate", "0.6", "lossy"}},
		{args: []string{"-droprate", "1e-3", "-corruptrate", "1e-3", "lossy"}, ok: true},
		{args: []string{"-flapdown", "300", "-flapup", "200", "flap"}},
		{args: []string{"-flapdown", "100", "-flapup", "200", "flap"}, ok: true},
		// One node holds 321 endpoints of the default memory: an incast
		// receiver takes one per sender, a multi receiver one per core,
		// and an all-to-all node one per peer.
		{args: []string{"-nodes", "322", "incast"}, ok: true},
		{args: []string{"-nodes", "323", "incast"}},
		{args: []string{"-nodes", "400", "incast"}},
		{args: []string{"-cores", "321", "multi"}, ok: true},
		{args: []string{"-cores", "322", "multi"}},
		{args: []string{"-cores", "400", "multi"}},
		{args: []string{"-cores", "511", "sweep"}, ok: true}, // the sweep stops at 256
		{args: []string{"-cores", "512", "sweep"}},
		{args: []string{"-nodes", "322", "alltoall"}, ok: true},
		{args: []string{"-nodes", "323", "alltoall"}},
		{args: []string{"-parallel", "-1", "sweep"}},
		{args: []string{"-parallel", "0", "sweep"}, ok: true},
		// lossy stamps an 8-byte sequence number in every message.
		{args: []string{"-size", "7", "lossy"}},
		{args: []string{"-size", "8", "lossy"}, ok: true},
		// saturate's bottleneck model holds only above 2048 B, and an
		// explicit -size 8 is not its unset 4 KiB default.
		{args: []string{"-size", "2048", "saturate"}},
		{args: []string{"-size", "2049", "saturate"}, ok: true},
		{args: []string{"-size", "8", "-iters", "100", "-parallel", "1", "saturate"}},
		{args: []string{"-size", "8", "flap"}, ok: true},
		// A flag the command does not read is an error, not ignored.
		{args: []string{"-record", "/tmp/t.trace", "put_bw"}, flag: "-record"},
		{args: []string{"-replay", "/tmp/t.trace", "am_lat"}, flag: "-replay"},
		{args: []string{"-workload", "spec.yaml", "put_bw"}, flag: "-workload"},
		{args: []string{"-trace", "/tmp/t.json", "sweep"}, flag: "-trace"},
		{args: []string{"-trace", "/tmp/t.json", "chaos"}, flag: "-trace"},
		{args: []string{"-trace", "/tmp/t.json", "saturate"}, flag: "-trace"},
		{args: []string{"-seeds", "3", "put_bw"}, flag: "-seeds"},
		{args: []string{"-flapdown", "50", "put_bw"}, flag: "-flapdown"},
		{args: []string{"-flapport", "nosuch", "put_bw"}, flag: "-flapport"},
		{args: []string{"-cores", "8", "am_lat"}, flag: "-cores"},
		{args: []string{"-warmup", "999", "lossy"}, flag: "-warmup"},
		{args: []string{"-seeds", "1", "-warmup", "7", "-iters", "33", "chaos"}, flag: "-iters"},
		{args: []string{"-workload", "spec.yaml", "saturate"}, flag: "-workload"},
		// saturate runs no warmup, and its bcopy-sized messages take the
		// same path in every descriptor mode.
		{args: []string{"-warmup", "100", "saturate"}, flag: "-warmup"},
		{args: []string{"-mode", "doorbell-gather", "saturate"}, flag: "-mode"},
		// -radix sizes a fat-tree, and -trace exports one system's run.
		{args: []string{"-radix", "8", "-topology", "switch", "put_bw"}, flag: "-radix"},
		{args: []string{"-radix", "8", "alltoall"}, flag: "-radix"},
		{args: []string{"-trace", "/tmp/t.json", "lossy"}, flag: "-trace"},
		// Each command accepts its own flags.
		{args: []string{"-iters", "10", "-warmup", "5", "-size", "64", "-mode", "doorbell-gather",
			"-noise", "-seed", "3", "-topology", "backtoback", "-nodes", "2", "-credits", "4",
			"-rxbudget", "8", "-droprate", "1e-3", "-corruptrate", "1e-3", "-trace", "/tmp/t.json", "put_bw"}, ok: true},
		{args: []string{"-iters", "10", "-warmup", "5", "-size", "64", "-mode", "doorbell-inline", "am_lat"}, ok: true},
		{args: []string{"-cores", "8", "-iters", "10", "-trace", "/tmp/t.json", "multi"}, ok: true},
		{args: []string{"-cores", "8", "-parallel", "2", "-warmup", "5", "sweep"}, ok: true},
		{args: []string{"-nodes", "5", "-rxbudget", "8", "-size", "4096", "-credits", "2", "incast"}, ok: true},
		{args: []string{"-topology", "fattree", "-radix", "4", "-nodes", "8", "alltoall"}, ok: true},
		{args: []string{"-nodes", "5", "-parallel", "1", "-size", "4096", "-droprate", "1e-3", "saturate"}, ok: true},
		{args: []string{"-iters", "100", "-size", "64", "-mode", "doorbell-inline", "-droprate", "1e-3", "-trace", "/tmp/t.json", "lossy"}, ok: true},
		{args: []string{"-flapport", "leaf1.up0", "-flapdown", "50", "-flapup", "150", "-radix", "4",
			"-nodes", "6", "-iters", "10", "flap"}, ok: true},
		{args: []string{"-seeds", "3", "-seed", "7", "-noise", "chaos"}, ok: true},
		{args: []string{"-workload", "spec.yaml", "-record", "/tmp/t.trace", "-trace", "/tmp/t.json", "-noise", "workload"}, ok: true},
		{args: []string{"-workload", "spec.yaml", "-replay", "/tmp/t.trace", "workload"}, ok: true},
	}
	defer resetFlags(t)
	for _, c := range cases {
		fs := commandLine(t)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		test := fs.Arg(0)
		err := checkFlags(fs)
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
		if c.flag != "" && (!strings.Contains(msg, c.flag+" ") || !strings.Contains(msg, test)) {
			t.Errorf("%v: error %q should name %s and the %s command", c.args, msg, c.flag, test)
		}
	}
}

// TestCommandDefaults: flap and saturate run 4 KiB puts, and flap warms up
// with one iteration, only when the command line leaves the flag unset; an
// explicit value wins, the flag's own default included.
func TestCommandDefaults(t *testing.T) {
	cases := []struct {
		args         []string
		size, warmup int
	}{
		{[]string{"put_bw"}, 8, 200},
		{[]string{"saturate"}, 4096, 200},
		{[]string{"-size", "8", "saturate"}, 8, 200},
		{[]string{"flap"}, 4096, 1},
		{[]string{"-size", "8", "flap"}, 8, 1},
		{[]string{"-warmup", "200", "flap"}, 4096, 200},
		{[]string{"-size", "64", "-warmup", "5", "flap"}, 64, 5},
	}
	defer resetFlags(t)
	for _, c := range cases {
		fs := commandLine(t)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got := msgSize(fs); got != c.size {
			t.Errorf("%v: msgSize = %d, want %d", c.args, got, c.size)
		}
		if got := warmup(fs); got != c.warmup {
			t.Errorf("%v: warmup = %d, want %d", c.args, got, c.warmup)
		}
	}
}

// TestCommandFlagsNameRealFlags keeps the table honest: every flag a
// command row names is a flag of the command line, and every flag of the
// command line is read by some command.
func TestCommandFlagsNameRealFlags(t *testing.T) {
	read := map[string]bool{}
	for row, names := range commandFlags {
		for _, name := range strings.Fields(names) {
			if flag.Lookup(name) == nil {
				t.Errorf("%s reads -%s, which is not a flag", row, name)
			}
			read[name] = true
		}
	}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") && !read[f.Name] {
			t.Errorf("no command reads -%s", f.Name)
		}
	})
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

// commandLine resets the command's flags to their defaults and returns a
// fresh flag set over them, so each case starts with no flag set.
func commandLine(t *testing.T) *flag.FlagSet {
	t.Helper()
	resetFlags(t)
	fs := flag.NewFlagSet("bbperftest", flag.ContinueOnError)
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	return fs
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
