package workload

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/uct"
	"breakband/internal/units"
)

const validYAML = `# comment
name: incast8
nodes: 8
topology: fattree
cohorts:
  - name: storm
    clients: 64
    src: [1, 2, 3, 4, 5, 6, 7]
    dst: [0]
    start: 0
    duration: 200us
    arrival: {process: poisson, rate: 40e3}
    size: {dist: fixed, bytes: 64}
`

// everyKeyYAML sets every key of every spec struct, so each decodes into its
// field; the choice distribution ignores the other size keys.
const everyKeyYAML = `name: every
nodes: 8
topology: fattree
radix: 4
credits: 16
rxbudget: 8
seed: 18446744073709551615
faults: {droprate: 1e-4, corruptrate: 2e-5}
cohorts:
  - name: tenant
    clients: 4
    src: [1, 2]
    dst: [0]
    start: 5us
    duration: 200us
    arrival: {process: gamma, rate: 40e3, shape: 2.5}
    size:
      dist: choice
      bytes: 64
      min: 8
      max: 128
      mean: 512
      cv: 0.5
      choices:
        - {bytes: 32, weight: 3}
        - bytes: 256
          weight: 1
    envelope:
      - {from: 10us, to: 150us, factor: 2}
      - {from: 0, to: 1500ns, factor: 0.5}
`

func TestParseSpecValid(t *testing.T) {
	spec, err := ParseSpec([]byte(validYAML))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Name != "incast8" || spec.Nodes != 8 || spec.Topology != "fattree" {
		t.Fatalf("header mismatch: %+v", spec)
	}
	c := &spec.Cohorts[0]
	if c.Name != "storm" || c.Clients != 64 || len(c.Src) != 7 || c.Dst[0] != 0 {
		t.Fatalf("cohort mismatch: %+v", c)
	}
	if c.Duration != 200*units.Microsecond {
		t.Fatalf("duration %v, want 200us", c.Duration)
	}
	if c.Arrival.Process != ProcPoisson || c.Arrival.Rate != 40e3 {
		t.Fatalf("arrival mismatch: %+v", c.Arrival)
	}
	if c.Size.Dist != SizeDistFixed || c.Size.Bytes != 64 {
		t.Fatalf("size mismatch: %+v", c.Size)
	}

	// A "- key:" list item may hold a nested block under its first key.
	nested := strings.Replace(validYAML, "  - name: storm\n",
		"  - arrival:\n      process: poisson\n      rate: 40e3\n    name: storm\n", 1)
	nested = strings.Replace(nested, "    arrival: {process: poisson, rate: 40e3}\n", "", 1)
	if got, err := ParseSpec([]byte(nested)); err != nil || !reflect.DeepEqual(got, spec) {
		t.Errorf("nested first key: got %+v, %v; want %+v", got, err, spec)
	}

	// The periodic process validates.
	periodic := strings.Replace(validYAML, "process: poisson", "process: periodic", 1)
	if got, err := ParseSpec([]byte(periodic)); err != nil || got.Cohorts[0].Arrival.Process != ProcPeriodic {
		t.Errorf("periodic process: got %+v, %v", got, err)
	}

	// Every key of every spec struct decodes into its field.
	want := &Spec{
		Name: "every", Nodes: 8, Topology: "fattree", Radix: 4, Credits: 16, RxBudget: 8,
		Seed:   math.MaxUint64,
		Faults: FaultSpec{DropRate: 1e-4, CorruptRate: 2e-5},
		Cohorts: []Cohort{{
			Name: "tenant", Clients: 4, Src: []int{1, 2}, Dst: []int{0},
			Start: 5 * units.Microsecond, Duration: 200 * units.Microsecond,
			Arrival: ArrivalSpec{Process: ProcGamma, Rate: 40e3, Shape: 2.5},
			Size: SizeSpec{Dist: SizeDistChoice, Bytes: 64, Min: 8, Max: 128, Mean: 512, CV: 0.5,
				Choices: []SizeChoice{{Bytes: 32, Weight: 3}, {Bytes: 256, Weight: 1}}},
			Envelope: []EnvelopeWindow{
				{From: 10 * units.Microsecond, To: 150 * units.Microsecond, Factor: 2},
				{From: 0, To: 1500 * units.Nanosecond, Factor: 0.5},
			},
		}},
	}
	if got, err := ParseSpec([]byte(everyKeyYAML)); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("every key: got %+v, %v; want %+v", got, err, want)
	}
}

// TestParseSpecErrors is the negative battery: every malformed document must
// return an error — never a panic, never a silently defaulted spec.
func TestParseSpecErrors(t *testing.T) {
	// mut rewrites the valid doc for the in-place cases below.
	mut := func(old, new string) string {
		if !strings.Contains(validYAML, old) {
			t.Fatalf("mutation anchor %q not in valid doc", old)
		}
		return strings.Replace(validYAML, old, new, 1)
	}
	// One sender more into node 0 than its host memory holds receive
	// endpoints and 64-byte targets for.
	srcs := make([]string, node.MemBytes/uct.EpTargetBytes(64)+1)
	for i := range srcs {
		srcs[i] = strconv.Itoa(i + 1)
	}
	overfull := strings.NewReplacer("nodes: 8", "nodes: "+strconv.Itoa(len(srcs)+1),
		"src: [1, 2, 3, 4, 5, 6, 7]", "src: ["+strings.Join(srcs, ", ")+"]").Replace(validYAML)
	// pico is a 2-node spec with one 8-byte cohort, for the bounds the
	// picosecond arrival clock sets.
	pico := func(arrival, window string) string {
		return "name: pico\nnodes: 2\ncohorts:\n  - name: c\n    clients: 1\n    src: [0]\n    dst: [1]\n" +
			"    size: {dist: fixed, bytes: 8}\n    arrival: " + arrival + "\n" + window
	}
	const ms = "    duration: 1ms\n"
	cases := []struct {
		name string
		doc  string
		want string // substring expected in the error
	}{
		{"empty", "", "empty"},
		{"tab indentation", "name: x\n\tnodes: 8\n", "tab"},
		{"unknown top key", mut("topology: fattree", "topolgy: fattree"), "unknown key"},
		{"unknown cohort key", mut("clients: 64", "clints: 64"), "unknown key"},
		{"missing name", mut("name: incast8\n", ""), "name"},
		{"one node", mut("nodes: 8", "nodes: 1"), "nodes"},
		{"bad topology", mut("topology: fattree", "topology: moebius"), "topology"},
		{"no cohorts", "name: x\nnodes: 8\ntopology: fattree\ncohorts: []\n", "cohort"},
		{"zero clients", mut("clients: 64", "clients: 0"), "clients"},
		{"negative clients", mut("clients: 64", "clients: -3"), "clients"},
		{"zero rate", mut("rate: 40e3", "rate: 0"), "rate"},
		{"negative rate", mut("rate: 40e3", "rate: -1"), "rate"},
		{"rate not a number", mut("rate: 40e3", "rate: fast"), "rate"},
		{"negative size", mut("bytes: 64", "bytes: -64"), "outside"},
		{"oversize message", mut("bytes: 64", "bytes: 65536"), "outside"},
		{"unknown process", mut("process: poisson", "process: cauchy"), "process"},
		{"gamma without shape", mut("process: poisson", "process: gamma"), "shape"},
		{"unknown size dist", mut("dist: fixed", "dist: zipf"), "distribution"},
		{"src out of range", mut("dst: [0]", "dst: [8]"), "out of range"},
		{"self send", mut("dst: [0]", "dst: [1]"), "itself"},
		{"endpoints overflow memory", overfull, "memory"},
		{"negative start", mut("start: 0", "start: -5us"), "start"},
		{"zero duration", mut("duration: 200us", "duration: 0"), "duration"},
		{"bad time suffix", mut("duration: 200us", "duration: 200parsecs"), "duration"},
		{"duplicate cohorts", mut("  - name: storm", "  - name: storm\n    clients: 1\n    src: [1]\n    dst: [0]\n    duration: 1us\n    arrival: {process: poisson, rate: 1e3}\n    size: {dist: fixed, bytes: 8}\n  - name: storm"), "duplicate"},
		{"overlapping envelopes", mut("size: {dist: fixed, bytes: 64}",
			"size: {dist: fixed, bytes: 64}\n    envelope:\n      - {from: 0, to: 100us, factor: 2}\n      - {from: 50us, to: 150us, factor: 3}"), "overlap"},
		{"envelope zero factor", mut("size: {dist: fixed, bytes: 64}",
			"size: {dist: fixed, bytes: 64}\n    envelope:\n      - {from: 0, to: 100us, factor: 0}"), "factor"},
		{"multi-doc", "---\nname: x\n---\nname: y\n", ""},
		{"anchor", "name: &a x\n", ""},
		{"unclosed inline map", mut("arrival: {process: poisson, rate: 40e3}", "arrival: {process: poisson, rate: 40e3"), ""},
		{"unclosed inline list", mut("dst: [0]", "dst: [0"), ""},
		{"scalar where map expected", mut("arrival: {process: poisson, rate: 40e3}", "arrival: soon"), ""},
		{"list where map expected", "name: x\nnodes: 8\ntopology: fattree\ncohorts:\n  - name: c\n    clients: 1\n    src: [1]\n    dst: [0]\n    duration: 1us\n    arrival:\n      - poisson\n    size: {dist: fixed, bytes: 8}\n", ""},
		// A 0 * Inf unit draw rounds to a negative instant: the run panicked.
		{"weibull shape 1e-9", pico("{process: weibull, rate: 1e3, shape: 1e-9}", ms), "shape"},
		// Draws under 1 ps: the clock never reached the window end.
		{"weibull shape 0.01", pico("{process: weibull, rate: 1e3, shape: 0.01}", ms), "shape"},
		{"weibull shape 0.02", pico("{process: weibull, rate: 1e3, shape: 0.02}", ms), "shape"},
		{"gamma shape 1e-300", pico("{process: gamma, rate: 1e3, shape: 1e-300}", ms), "shape"},
		{"rate above one per ps", pico("{process: poisson, rate: 1e15}", ms), "picosecond"},
		{"envelope above one per ps", pico("{process: poisson, rate: 1e9}",
			ms+"    envelope:\n      - {from: 0, to: 1us, factor: 1e4}\n"), "picosecond"},
		// Start+Duration wrapped negative: the run offered nothing.
		{"window overflows clock", pico("{process: poisson, rate: 1e3}",
			"    start: 5000000s\n    duration: 5000000s\n"), "overflows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted malformed doc: %+v", spec)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The decoder's errors in full: path, line and message.
	withSize := func(size string) string { return mut("size: {dist: fixed, bytes: 64}", size) }
	exact := []struct{ name, doc, want string }{
		{"unknown key: spec", mut("topology: fattree", "topolgy: fattree"),
			`spec: unknown key "topolgy" (allowed: name, nodes, topology, radix, credits, rxbudget, seed, faults, cohorts)`},
		{"unknown key: faults", mut("nodes: 8", "nodes: 8\nfaults: {droprate: 0, bogus: 1}"),
			`spec.faults: unknown key "bogus" (allowed: droprate, corruptrate)`},
		{"unknown key: cohort", mut("clients: 64", "clints: 64"),
			`spec.cohorts[0]: unknown key "clints" (allowed: name, clients, src, dst, start, duration, arrival, size, envelope)`},
		{"unknown key: arrival", mut("rate: 40e3", "rat: 40e3"),
			`spec.cohorts[0].arrival: unknown key "rat" (allowed: process, rate, shape)`},
		{"unknown key: size", withSize("size: {dist: fixed, byte: 64}"),
			`spec.cohorts[0].size: unknown key "byte" (allowed: dist, bytes, min, max, mean, cv, choices)`},
		{"unknown key: choice", withSize("size: {dist: choice, choices: [{bytes: 8, wieght: 1}]}"),
			`spec.cohorts[0].size.choices[0]: unknown key "wieght" (allowed: bytes, weight)`},
		{"unknown key: envelope", withSize("size: {dist: fixed, bytes: 64}\n    envelope:\n      - {from: 0, to: 1us, factr: 2}"),
			`spec.cohorts[0].envelope[0]: unknown key "factr" (allowed: from, to, factor)`},
		{"not an integer", mut("nodes: 8", "nodes: eight"), `spec.nodes: line 3: "eight" is not an integer`},
		{"not an unsigned integer", mut("nodes: 8", "nodes: 8\nseed: -1"), `spec.seed: line 4: "-1" is not an unsigned integer`},
		{"not a number", mut("rate: 40e3", "rate: fast"), `spec.cohorts[0].arrival.rate: line 12: "fast" is not a number`},
		{"expected a mapping", mut("arrival: {process: poisson, rate: 40e3}", "arrival: soon"),
			`spec.cohorts[0].arrival: expected a mapping`},
		{"expected a list", mut("src: [1, 2, 3, 4, 5, 6, 7]", "src: 1"), `spec.cohorts[0].src: expected a list`},
		{"expected a scalar", mut("name: incast8", "name: [incast8]"), `spec.name: expected a scalar value`},
		{"list element path", mut("src: [1, 2, 3, 4, 5, 6, 7]", "src: [1, x]"),
			`spec.cohorts[0].src[1]: line 8: "x" is not an integer`},
		{"bad duration", mut("duration: 200us", "duration: 200"),
			`spec.cohorts[0].duration: line 11: duration "200" needs a unit suffix (ps, ns, us, ms or s)`},
		{"unknown process", mut("process: poisson", "process: cauchy"),
			`workload "incast8": cohort "storm": unknown arrival process "cauchy" (want poisson, gamma, weibull or periodic)`},
	}
	for _, tc := range exact {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSpec([]byte(tc.doc)); err == nil || err.Error() != tc.want {
				t.Errorf("error %v, want %s", err, tc.want)
			}
		})
	}
}

// TestTraceCompatibleWithRejects covers the replay-side validation: traces
// from a different spec shape must be refused before a single task spawns.
func TestTraceCompatibleWithRejects(t *testing.T) {
	res := runSpec(t, incastSpec(), config.NoiseOff, 7, RunOpt{Record: true})
	tr := res.Trace

	check := func(name string, mutate func(*Spec)) {
		t.Run(name, func(t *testing.T) {
			spec := incastSpec()
			mutate(spec)
			if err := tr.CompatibleWith(spec); err == nil {
				t.Error("incompatible spec accepted")
			}
		})
	}
	check("renamed spec", func(s *Spec) { s.Name = "other" })
	check("node count", func(s *Spec) { s.Nodes = 16 })
	check("renamed cohort", func(s *Spec) { s.Cohorts[0].Name = "calm" })
	check("client count", func(s *Spec) { s.Cohorts[0].Clients = 8 })
	check("extra cohort", func(s *Spec) {
		c := s.Cohorts[0]
		c.Name = "extra"
		c.Src, c.Dst = []int{3}, []int{2}
		s.Cohorts = append(s.Cohorts, c)
	})

	t.Run("unknown cohort record", func(t *testing.T) {
		bad := *tr
		bad.Recs = append([]Rec(nil), tr.Recs...)
		bad.Recs[0].Cohort = 9
		if err := bad.CompatibleWith(incastSpec()); err == nil {
			t.Error("record with unknown cohort accepted")
		}
	})
	t.Run("destination mismatch", func(t *testing.T) {
		bad := *tr
		bad.Recs = append([]Rec(nil), tr.Recs...)
		bad.Recs[0].Dst = 5 // storm's round-robin dst for every client is 0
		if err := bad.CompatibleWith(incastSpec()); err == nil {
			t.Error("record with wrong destination accepted")
		}
	})
}

// FuzzParseSpec drives the parser with arbitrary bytes: any outcome but a
// panic is acceptable. `go test` runs the seed corpus; `go test -fuzz` digs.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(validYAML))
	f.Add([]byte(""))
	f.Add([]byte("name: x\nnodes: two\n"))
	f.Add([]byte("cohorts:\n  - - -\n"))
	f.Add([]byte("a:\n b:\n  c: [1, {d: 2}, ']'\n"))
	f.Add([]byte(strings.Repeat("  ", 100) + "deep: 1\n"))
	f.Add([]byte("name: \"un\nterminated\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err == nil && spec == nil {
			t.Error("nil spec with nil error")
		}
	})
}

// FuzzDecodeTrace drives the trace decoder with arbitrary bytes: any outcome
// but a panic is acceptable. The header's record count is input too, so a
// huge one must fail as a truncated trace, not size an allocation.
func FuzzDecodeTrace(f *testing.F) {
	const head = "bbwktrace v1\nspec incast8\nseed 3\nnodes 8\ncohorts 1\ncohort storm 64\n"
	f.Add([]byte(head + "records 2\n0 1 1000 64 0\n0 2 2500 64 0\n"))
	f.Add([]byte(head + "records 100000000000000\n"))
	f.Add([]byte(head + "records 1000000000\n0 1 1000 64 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err == nil && tr == nil {
			t.Error("nil trace with nil error")
		}
	})
}
