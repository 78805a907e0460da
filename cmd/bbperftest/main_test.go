package main

import (
	"flag"
	"strings"
	"testing"
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
		{[]string{"-iters", "0", "put_bw"}, true},
		{[]string{"-warmup", "-1", "am_lat"}, false},
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
	}
	defer resetFlags(t)
	for _, c := range cases {
		resetFlags(t)
		if err := flag.CommandLine.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		err := checkFlags(flag.Arg(0))
		if (err == nil) != c.ok {
			t.Errorf("%v: checkFlags = %v, want ok=%v", c.args, err, c.ok)
		}
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: error spans lines: %q", c.args, err)
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
