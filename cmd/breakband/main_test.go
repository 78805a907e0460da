package main

import (
	"flag"
	"strings"
	"testing"
)

// TestCheckFlags: every flag value the library would silently replace or
// turn into an empty result is rejected before any run, and in-range
// values pass.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
	}{
		{[]string{"all"}, true},
		{[]string{"-samples", "100", "table1"}, true},
		{[]string{"-samples", "150", "-windows", "10", "all"}, true},
		{[]string{"-samples", "99", "table1"}, false},
		{[]string{"-samples", "5", "table1"}, false},
		{[]string{"-windows", "1", "bench"}, true},
		{[]string{"-windows", "0", "bench"}, false},
		{[]string{"-windows", "-2", "bench"}, false},
		{[]string{"-fig7-iters", "1", "fig7"}, true},
		{[]string{"-fig7-iters", "0", "fig7"}, false},
		{[]string{"-fig7-iters", "-5", "fig7"}, false},
		{[]string{"-parallel", "0", "ablate"}, true},
		{[]string{"-parallel", "1", "ablate"}, true},
		{[]string{"-parallel", "-3", "ablate"}, false},
	}
	defer resetFlags(t)
	for _, c := range cases {
		resetFlags(t)
		if err := flag.CommandLine.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		err := checkFlags()
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
