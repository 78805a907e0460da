package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the simulator's packages the host-time breakdown is split by,
// plus the Go runtime and everything else (the osu/perftest benchmark
// loops, node assembly, config, vtimer, profile, stats and this benchmark).
var layers = []string{
	"sim", "pcie", "nic", "topo", "uct", "ucp", "mpi", "mlx", "arena",
	"analyzer", "memsim", "workload", "faults", "rng", "measure", "trace",
	"runtime", "other",
}

// internalLayer reports the layer of a function in breakband/internal, or
// false for a function outside it.
func internalLayer(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "breakband/internal/")
	if !ok {
		return "", false
	}
	// Package paths hold no dots, so the first one ends the path.
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l, true
		}
	}
	return "other", true
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/")
}

// stackLayer attributes one profile sample by its stack, leaf first. With
// runtimeLeaf, a sample whose leaf frame is in the Go runtime goes to
// runtime: time in the collector, the allocator and the scheduler.
// Otherwise the sample goes to the first breakband/internal package from
// the leaf up, so standard-library helpers such as math count toward the
// layer that called them. A stack with no such frame goes to runtime when
// the runtime is on it (background collection), and to other when not.
func stackLayer(stack []string, runtimeLeaf bool) string {
	if runtimeLeaf && len(stack) > 0 && isRuntime(stack[0]) {
		return "runtime"
	}
	for _, fn := range stack {
		if l, ok := internalLayer(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		if isRuntime(fn) {
			return "runtime"
		}
	}
	return "other"
}

// foldProfile sums one sample value of pprof profiles by layer (see
// stackLayer), using the toolchain's pprof to decode them; profiles are
// pprof's arguments: files, merged, optionally after "-base <file>" to
// subtract that one.
func foldProfile(value string, runtimeLeaf bool, profiles ...string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-raw", "-symbolize=none"}, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	type sample struct {
		v    float64
		locs []int
	}
	var (
		samples []sample
		col     = -1
		funcs   = map[int][]string{} // location id -> functions, leaf first
		lastLoc int
		section string
	)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
		case section == "Samples:" && col < 0:
			for i, f := range fields {
				if strings.HasPrefix(f, value) {
					col = i
				}
			}
			if col < 0 {
				return nil, fmt.Errorf("pprof: no %s values in %s", value, strings.Join(profiles, " "))
			}
		case section == "Samples:":
			vals, ids, ok := strings.Cut(line, ":")
			vs := strings.Fields(vals)
			if !ok || len(vs) <= col {
				continue // a label line under the sample
			}
			v, err := strconv.ParseFloat(vs[col], 64)
			if err != nil {
				continue
			}
			s := sample{v: v}
			for _, f := range strings.Fields(ids) {
				if id, err := strconv.Atoi(f); err == nil {
					s.locs = append(s.locs, id)
				}
			}
			samples = append(samples, s)
		case section == "Locations" && len(fields) >= 3 && strings.HasSuffix(fields[0], ":"):
			id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":"))
			if err != nil {
				continue
			}
			lastLoc = id
			if len(fields) >= 4 {
				funcs[id] = []string{fields[3]}
			}
		case section == "Locations" && len(fields) >= 1:
			// An inlined caller of the location above.
			funcs[lastLoc] = append(funcs[lastLoc], fields[0])
		}
	}
	byLayer := map[string]float64{}
	for _, s := range samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, funcs[id]...)
		}
		byLayer[stackLayer(stack, runtimeLeaf)] += s.v
	}
	return byLayer, nil
}
