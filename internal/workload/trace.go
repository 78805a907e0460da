package workload

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"

	"breakband/internal/units"
)

// traceMagic and traceVersion head every encoded trace. Decoders reject
// other versions, so the format can evolve without silently misreading old
// captures.
const (
	traceMagic   = "bbwktrace"
	traceVersion = 1
)

// Rec is one offered message: cohort/client identify the logical sender,
// At is the arrival instant the generator scheduled (absolute sim time),
// Size the payload bytes and Dst the destination node.
type Rec struct {
	Cohort int32
	Client int32
	At     units.Time
	Size   int32
	Dst    int32
}

// TraceCohort is the per-cohort header a trace carries so replay can verify
// it is being applied to the spec that produced it.
type TraceCohort struct {
	Name    string
	Clients int
}

// Trace is a recorded workload run: every offered message in generation
// order. Traces are deterministic — recording the same spec and seed twice
// yields byte-identical encodings, and a replayed run re-records the same
// bytes again.
type Trace struct {
	Name    string
	Seed    uint64
	Nodes   int
	Cohorts []TraceCohort
	Recs    []Rec
}

// newTrace builds an empty trace headed for the given spec.
func newTrace(spec *Spec, seed uint64) *Trace {
	tr := &Trace{Name: spec.Name, Seed: seed, Nodes: spec.Nodes}
	for i := range spec.Cohorts {
		c := &spec.Cohorts[i]
		tr.Cohorts = append(tr.Cohorts, TraceCohort{Name: c.Name, Clients: c.Clients})
	}
	return tr
}

// add appends one record. Amortized growth keeps the recording path cheap;
// the zero-alloc simbench pin measures the non-recording path.
func (tr *Trace) add(cohort, client int32, at units.Time, size, dst int32) {
	tr.Recs = append(tr.Recs, Rec{Cohort: cohort, Client: client, At: at, Size: size, Dst: dst})
}

// CompatibleWith reports why the trace cannot replay against the spec, or
// nil: the spec must carry the same name, node count and cohort shapes the
// recording run had.
func (tr *Trace) CompatibleWith(spec *Spec) error {
	if tr.Name != spec.Name {
		return fmt.Errorf("workload: trace is for spec %q, not %q", tr.Name, spec.Name)
	}
	if tr.Nodes != spec.Nodes {
		return fmt.Errorf("workload: trace recorded %d nodes, spec has %d", tr.Nodes, spec.Nodes)
	}
	if len(tr.Cohorts) != len(spec.Cohorts) {
		return fmt.Errorf("workload: trace recorded %d cohorts, spec has %d", len(tr.Cohorts), len(spec.Cohorts))
	}
	for i, tc := range tr.Cohorts {
		sc := &spec.Cohorts[i]
		if tc.Name != sc.Name || tc.Clients != sc.Clients {
			return fmt.Errorf("workload: trace cohort %d is %q/%d clients, spec has %q/%d",
				i, tc.Name, tc.Clients, sc.Name, sc.Clients)
		}
	}
	for i := range tr.Recs {
		r := &tr.Recs[i]
		if int(r.Cohort) >= len(spec.Cohorts) {
			return fmt.Errorf("workload: trace record %d names cohort %d of %d", i, r.Cohort, len(spec.Cohorts))
		}
		c := &spec.Cohorts[r.Cohort]
		if int(r.Client) >= c.Clients || r.Client < 0 {
			return fmt.Errorf("workload: trace record %d names client %d of cohort %q (%d clients)",
				i, r.Client, c.Name, c.Clients)
		}
		if want := c.ClientDst(int(r.Client)); int(r.Dst) != want {
			return fmt.Errorf("workload: trace record %d sends to node %d; spec routes client %d of %q to %d",
				i, r.Dst, r.Client, c.Name, want)
		}
		if r.Size < 1 || r.Size > MaxMsgBytes {
			return fmt.Errorf("workload: trace record %d has size %d outside [1, %d]", i, r.Size, MaxMsgBytes)
		}
	}
	return nil
}

// Encode renders the trace in its versioned text format.
func (tr *Trace) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s v%d\n", traceMagic, traceVersion)
	fmt.Fprintf(&b, "spec %s\n", tr.Name)
	fmt.Fprintf(&b, "seed %d\n", tr.Seed)
	fmt.Fprintf(&b, "nodes %d\n", tr.Nodes)
	fmt.Fprintf(&b, "cohorts %d\n", len(tr.Cohorts))
	for _, c := range tr.Cohorts {
		fmt.Fprintf(&b, "cohort %s %d\n", c.Name, c.Clients)
	}
	fmt.Fprintf(&b, "records %d\n", len(tr.Recs))
	for i := range tr.Recs {
		r := &tr.Recs[i]
		fmt.Fprintf(&b, "%d %d %d %d %d\n", r.Cohort, r.Client, int64(r.At), r.Size, r.Dst)
	}
	return b.Bytes()
}

// WriteFile encodes the trace to a file.
func (tr *Trace) WriteFile(path string) error {
	return os.WriteFile(path, tr.Encode(), 0o644)
}

// ReadTraceFile reads and decodes a trace file.
func ReadTraceFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	tr, err := DecodeTrace(data)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %v", path, err)
	}
	return tr, nil
}

// DecodeTrace parses an encoded trace. It never panics; malformed input
// returns an error naming the offending line.
func DecodeTrace(data []byte) (*Trace, error) {
	lines := strings.Split(string(data), "\n")
	ln := 0
	nextLine := func() (string, bool) {
		for ln < len(lines) {
			s := strings.TrimRight(lines[ln], "\r")
			ln++
			if s != "" {
				return s, true
			}
		}
		return "", false
	}
	head, ok := nextLine()
	if !ok || head != fmt.Sprintf("%s v%d", traceMagic, traceVersion) {
		return nil, fmt.Errorf("not a %s v%d trace (header %q)", traceMagic, traceVersion, head)
	}
	tr := &Trace{}
	field := func(key string) (string, error) {
		s, ok := nextLine()
		if !ok {
			return "", fmt.Errorf("line %d: truncated trace (missing %q)", ln, key)
		}
		val, found := strings.CutPrefix(s, key+" ")
		if !found {
			return "", fmt.Errorf("line %d: expected %q, got %q", ln, key, s)
		}
		return val, nil
	}
	name, err := field("spec")
	if err != nil {
		return nil, err
	}
	tr.Name = name
	seedS, err := field("seed")
	if err != nil {
		return nil, err
	}
	if tr.Seed, err = strconv.ParseUint(seedS, 10, 64); err != nil {
		return nil, fmt.Errorf("line %d: bad seed %q", ln, seedS)
	}
	nodesS, err := field("nodes")
	if err != nil {
		return nil, err
	}
	if tr.Nodes, err = strconv.Atoi(nodesS); err != nil || tr.Nodes < 2 {
		return nil, fmt.Errorf("line %d: bad node count %q", ln, nodesS)
	}
	ncS, err := field("cohorts")
	if err != nil {
		return nil, err
	}
	nc, err := strconv.Atoi(ncS)
	if err != nil || nc < 0 || nc > 1<<20 {
		return nil, fmt.Errorf("line %d: bad cohort count %q", ln, ncS)
	}
	for i := 0; i < nc; i++ {
		val, err := field("cohort")
		if err != nil {
			return nil, err
		}
		name, countS, found := strings.Cut(val, " ")
		if !found {
			return nil, fmt.Errorf("line %d: bad cohort header %q", ln, val)
		}
		count, err := strconv.Atoi(countS)
		if err != nil || count < 1 {
			return nil, fmt.Errorf("line %d: bad cohort client count %q", ln, countS)
		}
		tr.Cohorts = append(tr.Cohorts, TraceCohort{Name: name, Clients: count})
	}
	nrS, err := field("records")
	if err != nil {
		return nil, err
	}
	nr, err := strconv.Atoi(nrS)
	if err != nil || nr < 0 {
		return nil, fmt.Errorf("line %d: bad record count %q", ln, nrS)
	}
	// The header's count is input too: preallocate no more records than
	// the lines left could hold.
	tr.Recs = make([]Rec, 0, min(nr, len(lines)-ln))
	for i := 0; i < nr; i++ {
		s, ok := nextLine()
		if !ok {
			return nil, fmt.Errorf("line %d: truncated trace (%d of %d records)", ln, i, nr)
		}
		var r Rec
		var at int64
		if _, err := fmt.Sscanf(s, "%d %d %d %d %d", &r.Cohort, &r.Client, &at, &r.Size, &r.Dst); err != nil {
			return nil, fmt.Errorf("line %d: bad record %q", ln, s)
		}
		if r.Cohort < 0 || int(r.Cohort) >= nc {
			return nil, fmt.Errorf("line %d: record cohort %d out of range", ln, r.Cohort)
		}
		if at < 0 {
			return nil, fmt.Errorf("line %d: negative arrival time", ln)
		}
		r.At = units.Time(at)
		tr.Recs = append(tr.Recs, r)
	}
	if s, ok := nextLine(); ok {
		return nil, fmt.Errorf("line %d: trailing content %q after %d records", ln, s, nr)
	}
	return tr, nil
}
