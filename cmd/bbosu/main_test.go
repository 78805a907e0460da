package main

import (
	"flag"
	"strings"
	"testing"

	"breakband/internal/config"
)

// TestCheckFlags: every flag value the osu benchmarks would spin on, panic
// on or silently replace is rejected before a system is built, and in-range
// values pass.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
	}{
		{[]string{"mr"}, true},
		{[]string{"latency"}, true},
		{[]string{"-window", "64", "mr"}, true},
		{[]string{"-window", "128", "mr"}, true},
		{[]string{"-window", "256", "mr"}, true},
		{[]string{"-window", "100", "mr"}, false},
		{[]string{"-window", "32", "mr"}, false},
		{[]string{"-window", "200", "mr"}, false},
		{[]string{"-window", "0", "mr"}, false},
		{[]string{"-window", "-1", "mr"}, false},
		{[]string{"-windows", "1", "mr"}, true},
		{[]string{"-windows", "0", "mr"}, false},
		{[]string{"-windows", "-3", "mr"}, false},
		{[]string{"-iters", "1", "latency"}, true},
		{[]string{"-iters", "0", "latency"}, false},
		{[]string{"-iters", "-4", "latency"}, false},
		{[]string{"-size", "1", "mr"}, true},
		{[]string{"-size", "4088", "mr"}, true},
		{[]string{"-size", "4088", "latency"}, true},
		{[]string{"-size", "4089", "mr"}, false},
		{[]string{"-size", "4089", "latency"}, false},
		{[]string{"-size", "0", "mr"}, false},
		{[]string{"-size", "-1", "latency"}, false},
	}
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	defer resetFlags(t)
	for _, c := range cases {
		resetFlags(t)
		if err := flag.CommandLine.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		err := checkFlags(cfg)
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
