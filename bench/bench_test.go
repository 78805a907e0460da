package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// hostMeasured are the per-layer metrics, besides the per-layer host self
// time and allocation, that the host measures rather than the simulation.
var hostMeasured = map[string]bool{
	"host_ns_per_msg":             true,
	"sim.events_per_host_s":       true,
	"runtime.alloc_bytes_per_msg": true,
	"runtime.gc_cycles_per_round": true,
	"trace.overhead_pct":          true,
}

// TestSmoke runs every workload for one round at about 1% of its size,
// timed and traced, and checks the output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	units := func(ms map[string]metric) map[string]string {
		out := map[string]string{}
		for k, m := range ms {
			out[k] = m.Unit
		}
		return out
	}
	declared := func(ds []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, d := range ds {
			out[d.Name] = d.Unit
		}
		return out
	}
	same := func(t *testing.T, what string, got, want map[string]string) {
		t.Helper()
		for k, u := range want {
			if got[k] != u {
				t.Errorf("%s %s: emitted unit %q, BENCHMARK.json declares %q", what, k, got[k], u)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s %s is emitted but not declared in BENCHMARK.json", what, k)
			}
		}
	}

	results, err := runAll(workloads, runOpts{
		seed: 1, rounds: 1, scale: 0.01, traced: true, profileDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		t.Run(r.workload, func(t *testing.T) {
			same(t, "end-to-end metric", units(r.endToEnd), declared(decl.EndToEnd))
			same(t, "per-layer metric", units(r.perLayer), declared(decl.PerLayer))
			if r.failFrac() != 0 || r.attempted == 0 {
				t.Errorf("fail_frac %v (%d failed of %d): %q", r.failFrac(), r.failed, r.attempted, r.problems)
			}
			sum := 0.0
			for _, l := range layers {
				sum += r.perLayer[l+".self_pct"].Value
			}
			if math.Abs(sum-100) > 0.5 {
				t.Errorf("layer self_pct values sum to %v, want 100", sum)
			}
			if workloads[i].messages && r.perLayer["attr.residual_ps"].Value != 0 {
				t.Errorf("attr.residual_ps = %v, want 0", r.perLayer["attr.residual_ps"].Value)
			}
			rec := r.baseline()
			for name := range r.perLayer {
				host := hostMeasured[name] || strings.HasSuffix(name, ".self_pct") ||
					strings.HasSuffix(name, ".self_ns_per_msg") || strings.HasSuffix(name, ".alloc_mb_per_round")
				if rec[name].Simulated == host {
					t.Errorf("%s: recorded as simulated %v, want %v", name, rec[name].Simulated, !host)
				}
			}
		})
	}
}

// TestJudge pins the A/B verdicts, including set-up's absolute floor.
func TestJudge(t *testing.T) {
	// around gives one value per pair, spread a little around x.
	around := func(x float64) []float64 {
		var xs []float64
		for i := 0; i < abPairs; i++ {
			xs = append(xs, x*(1+0.01*float64(i-abPairs/2)))
		}
		return xs
	}
	for _, tc := range []struct {
		name          string
		base, changed []float64
		higherBetter  bool
		bound, floor  float64
		want          string
	}{
		{"same", around(1), around(1), false, 0.1, 0, "within bound"},
		{"slower beyond the share", around(1), around(1.2), false, 0.1, 0, "regression"},
		{"faster in every pair", around(1), around(0.8), false, 0.1, 0, "win"},
		{"higher is better", around(1), around(0.8), true, 0.1, 0, "regression"},
		{"set-up doubled under the floor", around(20e-6), around(40e-6), false, 0.25, setupFloorS, "within bound"},
		{"set-up past the floor", around(20e-6), around(2e-3), false, 0.25, setupFloorS, "regression"},
		{"spread wider than the bound", []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, around(1.5), false, 0.1, 0, "unresolved"},
	} {
		if got := judge(tc.base, tc.changed, tc.higherBetter, tc.bound, tc.floor).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareSimulated checks that a changed simulated value is reported
// and that only a worse accuracy metric fails the comparison.
func TestCompareSimulated(t *testing.T) {
	pairs := func(m map[string]float64) []map[string]float64 {
		var out []map[string]float64
		for i := 0; i < abPairs; i++ {
			out = append(out, m)
		}
		return out
	}
	base := map[string]float64{"paper_err_pct": 1, "sim.events_per_msg": 10}
	for _, tc := range []struct {
		name    string
		changed map[string]float64
		want    bool
	}{
		{"bit-identical", base, true},
		{"count changed", map[string]float64{"paper_err_pct": 1, "sim.events_per_msg": 9}, true},
		{"accuracy improved", map[string]float64{"paper_err_pct": 0.5, "sim.events_per_msg": 10}, true},
		{"accuracy worse", map[string]float64{"paper_err_pct": 1.02, "sim.events_per_msg": 10}, false},
	} {
		if got := compareSimulated("w", pairs(base), pairs(tc.changed)); got != tc.want {
			t.Errorf("%s: compareSimulated = %v, want %v", tc.name, got, tc.want)
		}
	}
}
