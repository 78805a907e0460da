// Command bench is the simulator's end-to-end benchmark. It runs four
// fixed-work workloads in one process on one simulation thread, checks the
// simulated outputs, and prints every metric by name with its unit; the
// last line of output is one JSON object with the run's verdict and its
// metrics. See README.md for the workloads, the metrics and how to read a
// traced run.
//
//	bash bench/run.sh                                  # all workloads, timed
//	bash bench/run.sh --workload osu_mr --trace 1      # one workload, plus the traced run
//	bash bench/run.sh --base HEAD~1                    # A/B against another revision
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// baselineJSON is this machine's last recorded numbers and their provenance.
//
//go:embed baseline.json
var baselineJSON []byte

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all four, in order)")
		seed    = flag.Uint64("seed", 1, "seed of the open-loop arrivals and of the campaign's noise")
		seconds = flag.Float64("seconds", 10, "wall time of each workload's timed run")
		trace   = flag.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics")
		base    = flag.String("base", "", "compare this checkout against a git revision on this machine")
		out     = flag.String("o", "", "also write the numbers and their provenance as JSON to this file")
	)
	flag.Parse()
	ws := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q (have %s)", *name, workloadNames())
		}
		ws = []*workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		fatalf("-seconds must be positive, got %v", *seconds)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	warnProvenance()
	runtime.MemProfileRate = 0

	if *base != "" {
		ok, err := compare(*base, ws, *seed, *seconds)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	opts := runOpts{
		seed:       *seed,
		seconds:    *seconds,
		rounds:     accuracyRounds,
		scale:      1,
		traced:     *trace == 1,
		profileDir: filepath.Join(".bench_build", "profiles"),
	}
	results, err := runAll(ws, opts)
	if err != nil {
		fatalf("%v", err)
	}
	for _, r := range results {
		r.print(os.Stdout)
	}
	if *out != "" {
		if err := writeBaseline(*out, results); err != nil {
			fatalf("%v", err)
		}
	}
	if err := writeSummary(os.Stdout, results, opts.traced); err != nil {
		fatalf("%v", err)
	}
	for _, r := range results {
		if r.failed > 0 {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs each workload's timed run, then its traced run if asked.
func runAll(ws []*workload, opts runOpts) ([]*result, error) {
	var results []*result
	for _, w := range ws {
		seen := digests{}
		timed, err := timedRun(w, opts, seen)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		var traced *runStats
		var cpu, alloc map[string]float64
		if opts.traced {
			traced, cpu, alloc, err = tracedRun(w, opts, seen)
			if err != nil {
				return nil, fmt.Errorf("%s traced: %w", w.name, err)
			}
		}
		results = append(results, summarize(w.name, timed, traced, cpu, alloc))
	}
	return results, nil
}

// provenance identifies the machine and toolchain numbers were taken on.
type provenance struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// machineProvenance describes this machine; the commit is left empty.
func machineProvenance() provenance {
	p := provenance{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// baselineFile is the layout of bench/baseline.json.
type baselineFile struct {
	Provenance provenance                         `json:"provenance"`
	Workloads  map[string]map[string]baselineStat `json:"workloads"`
}

// warnProvenance says so on stderr when this machine is not the one the
// recorded baseline came from: its numbers do not compare with this run's.
func warnProvenance() {
	var b baselineFile
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		fmt.Fprintf(os.Stderr, "bench: warning: bench/baseline.json: %v\n", err)
		return
	}
	cur, rec := machineProvenance(), b.Provenance
	rec.Commit = ""
	if cur != rec {
		fmt.Fprintf(os.Stderr, "bench: warning: this machine (%s, nproc %d, %s, GOMAXPROCS %d) is not the one bench/baseline.json was recorded on (%s, nproc %d, %s, GOMAXPROCS %d); compare only runs from one machine\n",
			cur.CPU, cur.NProc, cur.Go, cur.GOMAXPROCS, rec.CPU, rec.NProc, rec.Go, rec.GOMAXPROCS)
	}
}

func writeBaseline(path string, results []*result) error {
	b := baselineFile{Provenance: machineProvenance(), Workloads: map[string]map[string]baselineStat{}}
	b.Provenance.Commit = "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		b.Provenance.Commit = strings.TrimSpace(string(out))
	}
	for _, r := range results {
		b.Workloads[r.workload] = r.baseline()
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
