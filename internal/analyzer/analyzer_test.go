package analyzer

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

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
	a := New("n0")
	a.SetEnabled(false)
	a.ObserveTLP(10, pcie.Down, tlp(pcie.MWr, 0, 64, 0))
	if len(a.Records()) != 0 {
		t.Error("disabled analyzer recorded")
	}
	a.SetEnabled(true)
	a.ObserveTLP(10, pcie.Down, tlp(pcie.MWr, 0, 64, 0))
	a.Clear()
	if len(a.Records()) != 0 {
		t.Error("Clear left records")
	}
}

func TestLimit(t *testing.T) {
	a := New("n0")
	a.Limit = 2
	for i := 0; i < 5; i++ {
		a.ObserveTLP(units.Time(i), pcie.Down, tlp(pcie.MWr, uint64(i), 8, 0))
	}
	if len(a.Records()) != 2 {
		t.Errorf("limit not enforced: %d", len(a.Records()))
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

func TestRingWraparound(t *testing.T) {
	a := New("n0")
	a.SetRing(4)
	for i := 0; i < 10; i++ {
		a.ObserveTLP(units.Time(i*100), pcie.Down, tlp(pcie.MWr, uint64(i), 8, uint64(i)))
	}
	if a.Len() != 4 {
		t.Fatalf("ring held %d records, want 4", a.Len())
	}
	if a.Overwritten() != 6 {
		t.Errorf("overwritten %d, want 6", a.Overwritten())
	}
	recs := a.Records()
	for i, r := range recs {
		if want := uint64(6 + i); r.Seq != want {
			t.Errorf("record %d has seq %d, want %d (oldest-first tail)", i, r.Seq, want)
		}
	}
	// The trace table over a wrapped ring must also start at the oldest
	// record, not the overwrite cursor.
	if got := a.FormatTrace(1); !strings.Contains(got, "600ps") {
		t.Errorf("FormatTrace does not start at the oldest record:\n%s", got)
	}
}

func TestRingDeltasAfterWrap(t *testing.T) {
	a := New("n0")
	a.SetRing(3)
	// 7 captures 280ns apart: the ring keeps the last 3, so deltas over
	// Records() must see exactly 2 gaps of 280ns each — time-ordered
	// despite the buffer having wrapped twice.
	for i := 0; i < 7; i++ {
		a.ObserveTLP(units.Nanoseconds(float64(100+280*i)), pcie.Down, tlp(pcie.MWr, uint64(i), 64, 0))
	}
	s := Deltas(a.Records())
	if s.N() != 2 || s.Mean() != 280 {
		t.Errorf("wrapped deltas n=%d mean=%v, want 2 x 280ns", s.N(), s.Mean())
	}
	if s.Min() != s.Max() {
		t.Errorf("wrapped record order is not time order: deltas %v..%v", s.Min(), s.Max())
	}
}

// packingTrace is one capture of every TLP and DLLP type in both
// directions, carrying the values the stored form must keep without loss:
// BAR addresses, 4 KiB payloads and sequence numbers above 2^32. feed
// replays it into an analyzer; want is what Records must return.
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

// TestStoredRecordsRoundTrip checks that the 32-byte stored form loses
// nothing a Record carries: Records, Filter and TLPs return exactly the
// records captured, from the chunked store and from a wrapped ring.
func TestStoredRecordsRoundTrip(t *testing.T) {
	if got := unsafe.Sizeof(capture{}); got != 32 {
		t.Errorf("stored record is %d bytes, want 32", got)
	}
	feed, want := packingTrace()
	chunked := New("chunked")
	feed(chunked)
	ring := New("ring")
	ring.SetRing(len(want))
	for i := 0; i < len(want)/2+1; i++ {
		ring.ObserveTLP(units.Time(i), pcie.Down, tlp(pcie.MWr, uint64(i), 8, 0))
	}
	feed(ring)
	if ring.Overwritten() == 0 {
		t.Fatal("ring did not wrap")
	}
	isDLLP := func(r Record) bool { return !r.IsTLP }
	for _, a := range []*Analyzer{chunked, ring} {
		if got := a.Records(); !slices.Equal(got, want) {
			t.Errorf("%s: Records() =\n%+v\nwant\n%+v", a.Name(), got, want)
		}
		if got := a.Filter(isDLLP); !slices.Equal(got, keep(want, isDLLP)) {
			t.Errorf("%s: Filter(DLLPs) = %+v", a.Name(), got)
		}
		for _, dir := range []pcie.Dir{pcie.Down, pcie.Up} {
			for _, typ := range []pcie.TLPType{pcie.MWr, pcie.MRd, pcie.CplD} {
				match := func(r Record) bool { return r.IsTLP && r.Dir == dir && r.TLPType == typ }
				if got := a.TLPs(dir, typ, 0, 0); !slices.Equal(got, keep(want, match)) {
					t.Errorf("%s: TLPs(%v, %v) = %+v", a.Name(), dir, typ, got)
				}
			}
		}
	}
}

func TestRingClearAndModeSwitch(t *testing.T) {
	a := New("n0")
	a.SetRing(2)
	for i := 0; i < 5; i++ {
		a.ObserveTLP(units.Time(i), pcie.Down, tlp(pcie.MWr, uint64(i), 8, 0))
	}
	a.Clear()
	if a.Len() != 0 || a.Overwritten() != 0 {
		t.Errorf("Clear left len=%d overwritten=%d", a.Len(), a.Overwritten())
	}
	a.ObserveTLP(7, pcie.Down, tlp(pcie.MWr, 7, 8, 0))
	if a.Len() != 1 || a.Records()[0].Seq != 7 {
		t.Error("ring does not capture after Clear")
	}
	// Back to chunked mode: unbounded again, Limit honoured again.
	a.SetRing(0)
	a.Limit = 3
	for i := 0; i < 5; i++ {
		a.ObserveTLP(units.Time(i), pcie.Down, tlp(pcie.MWr, uint64(i), 8, 0))
	}
	if a.Len() != 3 {
		t.Errorf("chunked mode after ring: len=%d, want Limit=3", a.Len())
	}
}
