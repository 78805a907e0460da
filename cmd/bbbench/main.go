// Command bbbench runs the kernel microbenchmarks (the same bodies `go test
// -bench . ./internal/sim/...` runs, via internal/simbench) and emits
// BENCH_kernel.json so the repository's perf trajectory is recorded run over
// run: events/sec, ns/op, and allocs/op per benchmark, plus the speedup
// against the frozen pre-optimization baseline.
//
// Usage:
//
//	go run ./cmd/bbbench                          # writes BENCH_kernel.json
//	go run ./cmd/bbbench -o -                     # print to stdout
//	go run ./cmd/bbbench -filter 'HandoffFree.*'  # run a subset
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"

	"breakband/internal/simbench"
)

// baseline holds the PR-2 pre-optimization numbers (container/heap kernel,
// one goroutine handoff per Sleep), measured with -benchtime 300000x on the
// reference container (Intel Xeon @ 2.10GHz). They are frozen here so every
// later run reports its speedup against the same origin.
var baseline = map[string]result{
	"Schedule":      {NsPerOp: 135.7, AllocsPerOp: 1, BytesPerOp: 48, EventsPerSec: 7367382},
	"SleepHandoff":  {NsPerOp: 483.8, AllocsPerOp: 2, BytesPerOp: 64, EventsPerSec: 2067130},
	"PutBwEndToEnd": {NsPerOp: 15559, AllocsPerOp: 94, BytesPerOp: 6586, EventsPerSec: 2309812},
	// HandoffFreeStep replaces the goroutine suspend/resume that
	// SleepHandoff measured: at PR-2 a suspension could only be bought with
	// a handoff, so the SleepHandoff numbers are its baseline and the
	// speedup column shows what the continuation migration saved.
	"HandoffFreeStep": {NsPerOp: 483.8, AllocsPerOp: 2, BytesPerOp: 64, EventsPerSec: 2067130},
}

type result struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	Iterations   int64   `json:"iterations,omitempty"`
}

type report struct {
	Tool       string             `json:"tool"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Benchmarks map[string]result  `json:"benchmarks"`
	Baseline   map[string]result  `json:"baseline_pr2_prekernel"`
	Speedup    map[string]float64 `json:"speedup_vs_baseline"`
}

func main() {
	out := flag.String("o", "BENCH_kernel.json", "output path ('-' for stdout)")
	filter := flag.String("filter", "", "regexp selecting which benchmarks to run (empty = all)")
	flag.Parse()

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"Schedule", simbench.Schedule},
		{"HandoffFreeStep", simbench.HandoffFreeStep},
		{"HandoffFreeCall", simbench.HandoffFreeCall},
		{"PutBwEndToEnd", simbench.PutBwEndToEnd},
		{"NoisyPutBw", simbench.NoisyPutBw},
		{"WindowedPutBw", simbench.WindowedPutBw},
		{"IncastPutBw", simbench.IncastPutBw},
		{"OversubscribedPutBw", simbench.OversubscribedPutBw},
		{"WorkloadInject", simbench.WorkloadInject},
	}
	var sel *regexp.Regexp
	if *filter != "" {
		var err error
		if sel, err = regexp.Compile(*filter); err != nil {
			fmt.Fprintln(os.Stderr, "bbbench: bad -filter:", err)
			os.Exit(2)
		}
	}

	rep := report{
		Tool:       "bbbench",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: map[string]result{},
		Baseline:   baseline,
		Speedup:    map[string]float64{},
	}
	for _, b := range benches {
		if sel != nil && !sel.MatchString(b.name) {
			continue
		}
		r := testing.Benchmark(b.fn)
		res := result{
			NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
			EventsPerSec: r.Extra["events/sec"],
			Iterations:   int64(r.N),
		}
		rep.Benchmarks[b.name] = res
		vsBase := "no baseline"
		if base, ok := baseline[b.name]; ok && res.NsPerOp > 0 {
			rep.Speedup[b.name] = base.NsPerOp / res.NsPerOp
			vsBase = fmt.Sprintf("%.2fx vs baseline", rep.Speedup[b.name])
		}
		fmt.Fprintf(os.Stderr, "%-19s %10.1f ns/op  %12.0f events/sec  %3d allocs/op  (%s)\n",
			b.name, res.NsPerOp, res.EventsPerSec, res.AllocsPerOp, vsBase)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bbbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", *out)
	}
}
