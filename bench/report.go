package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a run prints with -trace 0.
var endToEndDefs = []metricDef{
	{"round_s", "s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayerDefs are the metrics a run prints with -trace 1. A workload that
// lacks a quantity (no messages, no fabric, no paper reference) reports 0.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{{"host_ns_per_msg", "ns"}}
	for _, l := range layers {
		defs = append(defs,
			metricDef{l + ".self_pct", "%"},
			metricDef{l + ".self_ns_per_msg", "ns"},
			metricDef{l + ".alloc_mb_per_round", "MB"})
	}
	return append(defs, []metricDef{
		{"sim.events_per_msg", "count"},
		{"sim.events_per_host_s", "1/s"},
		{"runtime.alloc_bytes_per_msg", "B"},
		{"runtime.gc_cycles_per_round", "count"},
		{"analyzer.records_retained", "count"},
		{"uct.busy_posts_per_msg", "count"},
		{"uct.empty_polls_per_msg", "count"},
		{"ucp.unexpected_frac", "ratio"},
		{"pcie.link_records_per_msg", "count"},
		{"pcie.up_pend_max", "count"},
		{"nic.frames_per_msg", "count"},
		{"nic.retransmit_frac", "ratio"},
		{"nic.rnr_naks_per_kmsg", "count"},
		{"nic.seq_naks", "count"},
		{"nic.ack_timeouts", "count"},
		{"nic.rx_held_max", "count"},
		{"topo.hot_port_util_pct", "%"},
		{"topo.max_queue", "count"},
		{"topo.credit_stalls_per_kmsg", "count"},
		{"topo.dropped", "count"},
		{"workload.clients", "count"},
		{"workload.offered", "count"},
		{"workload.goodput_mbs", "MB/s"},
		{"workload.observed_lat_p50_ns", "ns"},
		{"workload.observed_lat_p99_ns", "ns"},
		{"attr.ideal_pct", "%"},
		{"attr.queue_pct", "%"},
		{"attr.stall_pct", "%"},
		{"attr.pend_pct", "%"},
		{"attr.backoff_pct", "%"},
		{"attr.waste_pct", "%"},
		{"attr.residual_ps", "ps"},
		{"trace.overhead_pct", "%"},
		{"table1.llp_post_ns", "ns"},
		{"table1.llp_prog_ns", "ns"},
		{"table1.pcie_ns", "ns"},
		{"table1.wire_ns", "ns"},
		{"table1.switch_ns", "ns"},
		{"table1.rc_to_mem_ns", "ns"},
		{"table1.hlp_post_mpich_ns", "ns"},
		{"table1.hlp_post_ucp_ns", "ns"},
		{"paper_err_pct", "%"},
		{"model_err_pct", "%"},
	}...)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's numbers.
type result struct {
	workload          string
	attempted, failed int
	problems          []string
	endToEnd          map[string]metric
	// perLayer holds every per-layer metric after a traced run, and the
	// ones the timed run alone can give otherwise.
	perLayer map[string]metric
	// simulated names the per-layer values that the simulation alone
	// determines, as opposed to host measurements: a change that only
	// speeds up the simulator leaves them bit-identical.
	simulated map[string]bool
	// rounds holds the per-round samples behind the timings.
	rounds map[string][]float64
}

// summarize turns a workload's runs into its metrics. traced is nil when
// there was no traced run.
func summarize(name string, timed, traced *runStats, cpu, alloc map[string]float64) *result {
	r := &result{
		workload:  name,
		attempted: timed.offered,
		failed:    timed.failed,
		problems:  timed.problems,
		endToEnd: map[string]metric{
			"round_s":      {median(timed.roundS), "s"},
			"setup_s":      {median(timed.setupS), "s"},
			"live_heap_mb": {median(timed.heapMB), "MB"},
		},
		perLayer:  map[string]metric{},
		simulated: map[string]bool{},
		rounds: map[string][]float64{
			"round_s":         timed.roundS,
			"setup_s":         timed.setupS,
			"live_heap_mb":    timed.heapMB,
			"host_ns_per_msg": timed.nsPerMsg,
		},
	}
	vals := medianValues(timed.outs)
	for k := range vals {
		r.simulated[k] = true
	}
	hostNs := median(timed.nsPerMsg)
	vals["host_ns_per_msg"] = hostNs
	vals["sim.events_per_host_s"] = ratio(vals["sim.events_per_msg"], hostNs) * 1e9
	vals["runtime.alloc_bytes_per_msg"] = median(timed.allocPerMsg)
	vals["runtime.gc_cycles_per_round"] = median(timed.gcPerRound)
	if traced != nil {
		r.attempted += traced.offered
		r.failed += traced.failed
		r.problems = append(r.problems, traced.problems...)
		for k, v := range medianValues(traced.outs) {
			if old, ok := vals[k]; ok && old != v {
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("tracing changed %s from %v to %v", k, old, v))
			}
			vals[k] = v
			r.simulated[k] = true
		}
		var total float64
		for _, v := range cpu {
			total += v
		}
		for _, l := range layers {
			pct := ratio(cpu[l], total) * 100
			vals[l+".self_pct"] = pct
			vals[l+".self_ns_per_msg"] = pct / 100 * hostNs
			vals[l+".alloc_mb_per_round"] = alloc[l] / float64(len(traced.roundS)) / 1e6
		}
		vals["trace.overhead_pct"] = (median(traced.roundS)/median(timed.roundS) - 1) * 100
	}
	// Each model validation is one more operation, checked on its median.
	var checks []string
	for k := range vals {
		if strings.HasPrefix(k, validationPrefix) {
			checks = append(checks, k)
		}
	}
	sort.Strings(checks)
	for _, k := range checks {
		r.attempted++
		if math.Abs(vals[k]) > validationPct {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("validation %s off by %.2f%% (median over seeds)",
				strings.TrimPrefix(k, validationPrefix), vals[k]))
		}
	}
	for _, d := range perLayerDefs {
		if v, ok := vals[d.name]; ok || traced != nil {
			r.perLayer[d.name] = metric{v, d.unit}
			if !ok {
				// Every host measurement is set above, so this is a
				// simulated quantity the workload lacks.
				r.simulated[d.name] = true
			}
		}
	}
	return r
}

// medianValues takes each value's median over the rounds that report it.
func medianValues(outs []*outcome) map[string]float64 {
	all := map[string][]float64{}
	for _, o := range outs {
		for k, v := range o.values {
			all[k] = append(all[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range all {
		out[k] = median(vs)
	}
	return out
}

func (r *result) failFrac() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

// print writes the workload's metrics one per line: the end-to-end ones
// with their spread over rounds, then the per-layer ones.
func (r *result) print(w io.Writer) {
	line := func(name string, m metric, note string) {
		fmt.Fprintf(w, "%-16s %-30s %16.6g %-6s %s\n", r.workload, name, m.Value, m.Unit, note)
	}
	for _, d := range endToEndDefs {
		line(d.name, r.endToEnd[d.name], spread(r.rounds[d.name]))
	}
	if xs := r.rounds["host_ns_per_msg"]; len(xs) > 0 {
		line("host_ns_per_msg", metric{median(xs), "ns"}, spread(xs))
	}
	line("fail_frac", metric{r.failFrac(), "ratio"}, fmt.Sprintf("%d failed of %d operations", r.failed, r.attempted))
	for _, d := range perLayerDefs {
		if m, ok := r.perLayer[d.name]; ok && d.name != "host_ns_per_msg" {
			line(d.name, m, "")
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-16s FAILED: %s\n", r.workload, p)
	}
}

// spread describes a per-round sample: quartiles, and the highest
// percentile that still has at least ten rounds beyond it.
func spread(xs []float64) string {
	n := len(xs)
	if n == 0 {
		return ""
	}
	s := fmt.Sprintf("p25 %.6g p75 %.6g n %d", quantile(xs, 0.25), quantile(xs, 0.75), n)
	if n >= 20 {
		q := 1 - 10/float64(n)
		s += fmt.Sprintf(" p%.0f %.6g", q*100, quantile(xs, q))
	}
	return s
}

// summaryLine is the last line of output: the contract's JSON object.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// writeSummary prints the JSON line. With one workload its metrics keep
// their declared names; with several each is prefixed by its workload.
func writeSummary(w io.Writer, results []*result, perLayer bool) error {
	s := summaryLine{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		s.Attempted += r.attempted
		s.Failed += r.failed
		ms := r.endToEnd
		if perLayer {
			ms = r.perLayer
		}
		for k, m := range ms {
			if len(results) > 1 {
				k = r.workload + "." + k
			}
			s.Metrics[k] = m
		}
	}
	s.Correct = s.Failed == 0
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// baselineStat is one metric's record in bench/baseline.json: the spread
// over rounds for timings, or a single value. Simulated marks a value the
// simulation alone determines.
type baselineStat struct {
	Median    float64 `json:"median"`
	P25       float64 `json:"p25"`
	P75       float64 `json:"p75"`
	N         int     `json:"n"`
	Unit      string  `json:"unit"`
	Simulated bool    `json:"simulated,omitempty"`
}

func (r *result) baseline() map[string]baselineStat {
	out := map[string]baselineStat{}
	add := func(name string, m metric) {
		if xs := r.rounds[name]; len(xs) > 0 {
			out[name] = baselineStat{median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs), m.Unit, false}
			return
		}
		out[name] = baselineStat{m.Value, m.Value, m.Value, 1, m.Unit, r.simulated[name]}
	}
	for k, m := range r.endToEnd {
		add(k, m)
	}
	for k, m := range r.perLayer {
		add(k, m)
	}
	add("fail_frac", metric{r.failFrac(), "ratio"})
	return out
}
