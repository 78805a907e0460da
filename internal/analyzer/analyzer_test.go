package analyzer

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"breakband/internal/pcie"
	"breakband/internal/units"
)

func tlp(typ pcie.TLPType, seq uint64, payload int, addr uint64) *pcie.TLP {
	return &pcie.TLP{Type: typ, Seq: seq, Data: make([]byte, payload), Addr: addr}
}

func TestCaptureAndFilter(t *testing.T) {
	a := New("n0")
	a.ObserveTLP(10, pcie.Down, tlp(pcie.MWr, 0, 64, 0x100))
	a.ObserveTLP(20, pcie.Up, tlp(pcie.MWr, 0, 64, 0x200))
	a.ObserveDLLP(30, pcie.Up, &pcie.DLLP{Type: pcie.Ack, AckSeq: 0})
	if len(a.Records()) != 3 {
		t.Fatalf("captured %d", len(a.Records()))
	}
	down := a.TLPs(pcie.Down, pcie.MWr, 64, 64)
	if len(down) != 1 || down[0].Addr != 0x100 {
		t.Errorf("downstream filter: %+v", down)
	}
	if got := a.TLPs(pcie.Down, pcie.MWr, 65, 0); len(got) != 0 {
		t.Error("min-payload filter leaked")
	}
}

func TestDisabledAndClear(t *testing.T) {
	// A node that never attached an analyzer has a nil Tap, and counting
	// its records must not panic.
	var none *Analyzer
	if none.Len() != 0 {
		t.Error("nil analyzer reports records")
	}
	a := New("n0")
	a.ObserveTLP(10, pcie.Down, tlp(pcie.MWr, 0, 64, 0))
	a.Clear()
	if len(a.Records()) != 0 || a.Len() != 0 {
		t.Error("Clear left records")
	}
}

func TestDeltas(t *testing.T) {
	recs := []Record{
		{At: units.Nanoseconds(100)},
		{At: units.Nanoseconds(380)},
		{At: units.Nanoseconds(660)},
	}
	s := Deltas(recs)
	if s.N() != 2 || s.Mean() != 280 {
		t.Errorf("deltas n=%d mean=%v", s.N(), s.Mean())
	}
	if Deltas(nil).N() != 0 {
		t.Error("empty deltas nonzero")
	}
}

func TestAckRoundTrips(t *testing.T) {
	a := New("n0")
	// Upstream MWr at 100ns, its ACK (downstream) at 375ns -> half RT 137.5.
	a.ObserveTLP(units.Nanoseconds(100), pcie.Up, tlp(pcie.MWr, 7, 64, 0))
	a.ObserveDLLP(units.Nanoseconds(375), pcie.Down, &pcie.DLLP{Type: pcie.Ack, AckSeq: 7})
	// Unrelated ACK must not match.
	a.ObserveDLLP(units.Nanoseconds(999), pcie.Down, &pcie.DLLP{Type: pcie.Ack, AckSeq: 8})
	s := a.AckRoundTrips(pcie.Up, pcie.MWr)
	if s.N() != 1 || s.Mean() != 137.5 {
		t.Errorf("round trips n=%d mean=%v", s.N(), s.Mean())
	}
}

func TestPairDeltas(t *testing.T) {
	a := New("n0")
	a.ObserveTLP(units.Nanoseconds(0), pcie.Down, tlp(pcie.MWr, 0, 64, 0))
	a.ObserveTLP(units.Nanoseconds(50), pcie.Down, tlp(pcie.MWr, 1, 64, 0)) // ignored: already armed
	a.ObserveTLP(units.Nanoseconds(700), pcie.Up, tlp(pcie.MWr, 0, 64, 0))
	a.ObserveTLP(units.Nanoseconds(1000), pcie.Down, tlp(pcie.MWr, 2, 64, 0))
	a.ObserveTLP(units.Nanoseconds(1800), pcie.Up, tlp(pcie.MWr, 1, 64, 0))
	s := a.PairDeltas(
		func(r Record) bool { return r.Dir == pcie.Down && r.IsTLP },
		func(r Record) bool { return r.Dir == pcie.Up && r.IsTLP },
	)
	if s.N() != 2 {
		t.Fatalf("pairs = %d", s.N())
	}
	if s.Mean() != (700+800)/2 {
		t.Errorf("pair mean = %v", s.Mean())
	}
}

func TestFormatTrace(t *testing.T) {
	a := New("n0")
	a.ObserveTLP(units.Nanoseconds(100), pcie.Down, tlp(pcie.MWr, 3, 64, 0xd000))
	a.ObserveDLLP(units.Nanoseconds(105), pcie.Up, &pcie.DLLP{Type: pcie.Ack, AckSeq: 3})
	out := a.FormatTrace(0)
	for _, want := range []string{"MWr", "Ack", "down", "up", "0xd000"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(New("x").FormatTrace(0), "TIME") {
		t.Error("header missing")
	}
	a.ObserveTLP(units.Nanoseconds(200), pcie.Down, tlp(pcie.MWr, 4, 64, 0))
	if !strings.Contains(a.FormatTrace(1), "more records") {
		t.Error("truncation note missing")
	}
}

func TestKind(t *testing.T) {
	r := Record{IsTLP: true, TLPType: pcie.MWr}
	if r.Kind() != "MWr" {
		t.Error("TLP kind")
	}
	r = Record{IsTLP: false, DLLPType: pcie.UpdateFC}
	if r.Kind() != "UpdateFC" {
		t.Error("DLLP kind")
	}
}

// packingTrace is one capture of every TLP and DLLP type in both
// directions, carrying the values the trace must keep without loss: BAR
// addresses, 4 KiB payloads and sequence numbers above 2^32. feed replays
// it into an analyzer; want is what Records must return.
func packingTrace() (feed func(*Analyzer), want []Record) {
	type obs struct {
		tlp  *pcie.TLP
		dllp *pcie.DLLP
	}
	var trace []obs
	seq := uint64(1)<<32 + 7
	for _, dir := range []pcie.Dir{pcie.Down, pcie.Up} {
		addr := uint64(0x1040)
		if dir == pcie.Down {
			addr = pcie.BARBase + 0x840
		}
		for _, typ := range []pcie.TLPType{pcie.MWr, pcie.MRd, pcie.CplD} {
			seq++
			t := &pcie.TLP{Type: typ, Seq: seq, Addr: addr, ReadLen: 4096}
			payload := 0
			if typ != pcie.MRd {
				t.Data = make([]byte, 4096)
				payload = 4096
			}
			trace = append(trace, obs{tlp: t})
			want = append(want, Record{Dir: dir, IsTLP: true, TLPType: typ, Addr: addr, Payload: payload, Seq: seq})
		}
		for _, typ := range []pcie.DLLPType{pcie.Ack, pcie.Nack, pcie.UpdateFC} {
			seq++
			d := &pcie.DLLP{Type: typ, AckSeq: seq, Kind: pcie.NonPosted, Credit: pcie.Credits{Hdr: 1, Data: 4}}
			trace = append(trace, obs{dllp: d})
			want = append(want, Record{Dir: dir, DLLPType: typ, AckSeq: seq})
		}
	}
	for i := range want {
		want[i].At = units.Nanoseconds(float64(100 * (i + 1)))
	}
	feed = func(a *Analyzer) {
		for i, o := range trace {
			if o.tlp != nil {
				a.ObserveTLP(want[i].At, want[i].Dir, o.tlp)
			} else {
				a.ObserveDLLP(want[i].At, want[i].Dir, o.dllp)
			}
		}
	}
	return feed, want
}

// keep returns the records of rs that match f.
func keep(rs []Record, f func(Record) bool) []Record {
	var out []Record
	for _, r := range rs {
		if f(r) {
			out = append(out, r)
		}
	}
	return out
}

// TestStoredRecordsRoundTrip checks that a capture loses nothing a Record
// carries: Records, Filter and TLPs return exactly the records captured.
func TestStoredRecordsRoundTrip(t *testing.T) {
	feed, want := packingTrace()
	a := New("n0")
	feed(a)
	if got := a.Records(); !slices.Equal(got, want) {
		t.Errorf("Records() =\n%+v\nwant\n%+v", got, want)
	}
	isDLLP := func(r Record) bool { return !r.IsTLP }
	if got := a.Filter(isDLLP); !slices.Equal(got, keep(want, isDLLP)) {
		t.Errorf("Filter(DLLPs) = %+v", got)
	}
	for _, dir := range []pcie.Dir{pcie.Down, pcie.Up} {
		for _, typ := range []pcie.TLPType{pcie.MWr, pcie.MRd, pcie.CplD} {
			match := func(r Record) bool { return r.IsTLP && r.Dir == dir && r.TLPType == typ }
			if got := a.TLPs(dir, typ, 0, 0); !slices.Equal(got, keep(want, match)) {
				t.Errorf("TLPs(%v, %v) = %+v", dir, typ, got)
			}
		}
	}
}

// TestRecordsAcrossChunks captures more than 8k records, the length of a
// long measured window, and checks that every query walks them in capture
// order, then that a second capture after Clear shows none of the first.
func TestRecordsAcrossChunks(t *testing.T) {
	const n = 8193
	a := New("n0")
	fill := func(seq0 uint64, gap units.Time) {
		t.Helper()
		for i := 0; i < n; i++ {
			a.ObserveTLP(units.Time(i+1)*gap, pcie.Down, tlp(pcie.MWr, seq0+uint64(i), 64, 0))
		}
		if a.Len() != n {
			t.Fatalf("Len() = %d, want %d", a.Len(), n)
		}
		recs := a.Records()
		if len(recs) != n {
			t.Fatalf("Records() holds %d, want %d", len(recs), n)
		}
		for i, r := range recs {
			if r.Seq != seq0+uint64(i) || r.At != units.Time(i+1)*gap {
				t.Fatalf("record %d = seq %d at %v, want seq %d at %v",
					i, r.Seq, r.At, seq0+uint64(i), units.Time(i+1)*gap)
			}
		}
		s := Deltas(recs)
		if s.N() != n-1 || s.Min() != gap.Ns() || s.Max() != gap.Ns() {
			t.Errorf("Deltas: n=%d min=%v max=%v, want %d gaps of %v ns",
				s.N(), s.Min(), s.Max(), n-1, gap.Ns())
		}
		const shown = 4099
		lines := strings.Split(strings.TrimSuffix(a.FormatTrace(shown), "\n"), "\n")
		if len(lines) != 1+shown+1 {
			t.Fatalf("FormatTrace(%d) printed %d lines, want header + %d rows + note", shown, len(lines), shown)
		}
		if last := fmt.Sprint(" ", seq0+shown-1); !strings.HasSuffix(lines[shown], last) {
			t.Errorf("FormatTrace row %d = %q, want seq%s", shown, lines[shown], last)
		}
		if want := fmt.Sprintf("... (%d more records)", n-shown); lines[shown+1] != want {
			t.Errorf("FormatTrace note = %q, want %q", lines[shown+1], want)
		}
	}
	fill(0, units.Nanoseconds(280))
	a.Clear()
	if a.Len() != 0 || len(a.Records()) != 0 {
		t.Fatalf("Clear left Len() = %d", a.Len())
	}
	fill(1<<20, units.Nanoseconds(140))
}
