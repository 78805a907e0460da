package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	// abPairs is how many runs of each side the A/B mode makes per
	// workload, alternating which side goes first.
	abPairs = 10
	// setupFloorS is the least worsening of setup_s the A/B mode calls a
	// regression. Set-up takes tens of microseconds and its median shifts
	// by up to 2x between processes, so a share of it alone is noise; a
	// real set-up regression, such as eagerly zeroing simulated memory,
	// costs milliseconds.
	setupFloorS = 1e-3
)

// accuracyBounds are the simulated per-layer values the A/B mode gates:
// how far, in percentage points, the changed side's median may exceed the
// base's. Every other simulated value is only reported when it changes.
var accuracyBounds = map[string]float64{
	"paper_err_pct": 0.01,
	"model_err_pct": 0,
}

// compare builds rev from a local git worktree and this checkout, both with
// this checkout's benchmark code, then runs the two binaries in pairs,
// alternating which goes first. It judges every end-to-end metric on every
// workload, and compares the simulated per-layer values pair by pair: a
// change that only speeds up the simulator leaves them bit-identical. It
// reports false when a side failed its checks or a metric regressed beyond
// its bound.
func compare(rev string, ws []*workload, seed uint64, seconds float64) (bool, error) {
	root, err := checkoutRoot()
	if err != nil {
		return false, err
	}
	decls, err := readDeclarations(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	dir := filepath.Join(root, ".bench_build", "ab")
	baseRoot := filepath.Join(dir, "base")
	git := func(args ...string) error {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(out))
		}
		return nil
	}
	// A worktree left behind by an interrupted comparison would block the add.
	if err := os.RemoveAll(dir); err != nil {
		return false, err
	}
	if err := git("worktree", "prune"); err != nil {
		return false, err
	}
	if err := git("worktree", "add", "--detach", baseRoot, rev); err != nil {
		return false, err
	}
	defer git("worktree", "remove", "--force", baseRoot)

	// Both sides run the same benchmark code: only the simulator differs.
	if err := os.RemoveAll(filepath.Join(baseRoot, "bench")); err != nil {
		return false, err
	}
	if err := copyTree(filepath.Join(root, "bench"), filepath.Join(baseRoot, "bench")); err != nil {
		return false, err
	}
	if err := copyFile(filepath.Join(root, "BENCHMARK.json"), filepath.Join(baseRoot, "BENCHMARK.json")); err != nil {
		return false, err
	}
	sides := []struct {
		name, root, bin string
	}{
		{"base", baseRoot, filepath.Join(dir, "bench-base")},
		{"new", root, filepath.Join(dir, "bench-new")},
	}
	for _, s := range sides {
		cmd := exec.Command("go", "build", "-o", s.bin, ".")
		cmd.Dir = filepath.Join(s.root, "bench")
		if out, err := cmd.CombinedOutput(); err != nil {
			return false, fmt.Errorf("building the %s side: %v: %s", s.name, err, bytes.TrimSpace(out))
		}
	}

	ok := true
	fmt.Printf("A/B: base %s vs this checkout, %d pairs of %gs runs per workload\n", rev, abPairs, seconds)
	fmt.Printf("%-16s %-13s %34s %34s %6s  %s\n", "workload", "metric", "base median [p25, p75]", "new median [p25, p75]", "wins", "verdict")
	for _, w := range ws {
		vals := [2]map[string][]float64{{}, {}}
		// sims holds each side's simulated values, one map per pair.
		var sims [2][]map[string]float64
		for i := 0; i < abPairs; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				s := sides[side]
				record := filepath.Join(dir, s.name+".json")
				args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed + uint64(i)), "--seconds", fmt.Sprint(seconds), "--trace", "0", "-o", record}
				line, err := runSide(s.bin, s.root, args)
				if err != nil {
					return false, fmt.Errorf("%s side, %s pair %d: %w", s.name, w.name, i, err)
				}
				if !line.Correct {
					ok = false
					fmt.Printf("%-16s %s side failed its checks in pair %d (%d of %d operations)\n", w.name, s.name, i, line.Failed, line.Attempted)
				}
				for k, m := range line.Metrics {
					vals[side][k] = append(vals[side][k], m.Value)
				}
				sim, err := readSimulated(record, w.name)
				if err != nil {
					return false, fmt.Errorf("%s side, %s pair %d: %w", s.name, w.name, i, err)
				}
				sims[side] = append(sims[side], sim)
			}
		}
		for _, d := range decls {
			b, n := vals[0][d.Name], vals[1][d.Name]
			floor := 0.0
			if d.Name == "setup_s" {
				floor = setupFloorS
			}
			v := judge(b, n, d.Better == "higher", d.Bound, floor)
			if v.verdict == "regression" {
				ok = false
			}
			fmt.Printf("%-16s %-13s %34s %34s %3d/%-2d  %s\n", w.name, d.Name, quartiles(b), quartiles(n), v.wins, len(b), v.verdict)
		}
		if !compareSimulated(w.name, sims[0], sims[1]) {
			ok = false
		}
	}
	return ok, nil
}

// compareSimulated prints every simulated value that differs between the
// sides in any pair, and reports false when an accuracy metric got worse
// beyond its bound.
func compareSimulated(workload string, base, changed []map[string]float64) bool {
	names := map[string]bool{}
	for _, side := range [][]map[string]float64{base, changed} {
		for _, m := range side {
			for k := range m {
				names[k] = true
			}
		}
	}
	var sorted []string
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	ok, same := true, true
	for _, k := range sorted {
		var b, n []float64
		differ := 0
		for i := range base {
			b, n = append(b, base[i][k]), append(n, changed[i][k])
			if base[i][k] != changed[i][k] {
				differ++
			}
		}
		if differ == 0 {
			continue
		}
		same = false
		verdict := "changed"
		if bound, gated := accuracyBounds[k]; gated && median(n)-median(b) > bound {
			verdict, ok = "regression", false
		}
		fmt.Printf("%-16s %-30s base %.6g new %.6g, differs in %d of %d pairs  %s\n", workload, k, median(b), median(n), differ, len(base), verdict)
	}
	if same {
		fmt.Printf("%-16s simulated values: bit-identical on both sides (%d values, %d pairs)\n", workload, len(sorted), len(base))
	}
	return ok
}

// readSimulated reads one workload's simulated values from a record that
// -o wrote.
func readSimulated(path, workload string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baselineFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := map[string]float64{}
	for k, s := range b.Workloads[workload] {
		if s.Simulated {
			out[k] = s.Median
		}
	}
	return out, nil
}

// declaration is one end-to-end metric of BENCHMARK.json.
type declaration struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclarations(path string) ([]declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []declaration `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return b.EndToEnd, nil
}

// runSide runs one side's binary from its checkout and decodes the JSON
// object on the last line of its output.
func runSide(bin, dir string, args []string) (*summaryLine, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s summaryLine
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &s); jerr != nil {
		return nil, fmt.Errorf("no result (%v): %s", err, strings.TrimSpace(stderr.String()))
	}
	return &s, nil
}

type verdict struct {
	wins    int
	verdict string
}

// judge compares one metric's paired runs, base[i] against changed[i]. A
// win needs at least nine tenths of the pairs and a median gap wider than
// the base's interquartile range. A regression is a changed median worse
// than the base's by more than the allowance: bound (a share of the base
// median), but never less than floor (in the metric's unit). Neither is
// unresolved when the base's own spread is wider than the allowance, and
// within the bound otherwise.
func judge(base, changed []float64, higherBetter bool, bound, floor float64) verdict {
	v := verdict{verdict: "within bound"}
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	for i := range base {
		if i < len(changed) && sign*(base[i]-changed[i]) > 0 {
			v.wins++
		}
	}
	bm, cm := median(base), median(changed)
	iqr := quantile(base, 0.75) - quantile(base, 0.25)
	allowed := max(bound*math.Abs(bm), floor)
	switch {
	case float64(v.wins) >= math.Ceil(0.9*float64(len(base))) && sign*(bm-cm) > iqr:
		v.verdict = "win"
	case sign*(cm-bm) > allowed:
		v.verdict = "regression"
	case iqr > allowed:
		v.verdict = "unresolved"
	}
	return v
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}

// checkoutRoot finds the checkout holding this benchmark: the working
// directory or the nearest parent with bench/go.mod.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout with bench/go.mod above the working directory")
		}
		dir = parent
	}
}

// copyTree copies the regular files under src to dst, skipping build
// output directories.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, filepath.Join(dst, rel))
	})
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
