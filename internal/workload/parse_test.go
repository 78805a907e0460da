package workload

import (
	"strconv"
	"strings"
	"testing"

	"breakband/internal/config"
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
	// 299 senders into node 0: its receive endpoints and targets overflow
	// its host memory.
	srcs := make([]string, 299)
	for i := range srcs {
		srcs[i] = strconv.Itoa(i + 1)
	}
	overfull := strings.NewReplacer("nodes: 8", "nodes: 300",
		"src: [1, 2, 3, 4, 5, 6, 7]", "src: ["+strings.Join(srcs, ", ")+"]").Replace(validYAML)
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
