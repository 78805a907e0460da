package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"breakband/internal/units"
)

func TestRingWraparound(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{At: units.Time(i), Kind: EvQueue, TID: uint32(i)})
	}
	if tr.Len() != 4 || tr.Emitted() != 10 || tr.Overwritten() != 6 {
		t.Fatalf("len=%d emitted=%d overwritten=%d", tr.Len(), tr.Emitted(), tr.Overwritten())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := uint32(6 + i); e.TID != want {
			t.Fatalf("event %d: TID=%d want %d (oldest-first order broken)", i, e.TID, want)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || len(tr.Events()) != 0 {
		t.Fatalf("reset did not empty the ring")
	}
}

func TestPortInterning(t *testing.T) {
	tr := New(8)
	a := tr.Port("sw0.p1")
	b := tr.Port("sw0.p2")
	if a == b || tr.Port("sw0.p1") != a {
		t.Fatalf("interning unstable: %d %d", a, b)
	}
	if tr.PortName(a) != "sw0.p1" || tr.PortName(-1) != "" {
		t.Fatalf("PortName wrong")
	}
}

func TestArgPacking(t *testing.T) {
	arg := ArgMsg(0x1234, 4096, 0xabcdef)
	if MsgQPN(arg) != 0x1234 || MsgBytes(arg) != 4096 || MsgPSN(arg) != 0xabcdef {
		t.Fatalf("ArgMsg roundtrip: %x -> %x %d %x", arg, MsgQPN(arg), MsgBytes(arg), MsgPSN(arg))
	}
	q := ArgQP(7, 123456789)
	if QPQPN(q) != 7 || QPVal(q) != 123456789 {
		t.Fatalf("ArgQP roundtrip")
	}
}

// synthetic timeline: one message delivered first try, one refused once
// then delivered after a backoff window.
func synthEvents() []Event {
	us := func(x int64) units.Time { return units.Time(x) * units.Microsecond }
	return []Event{
		// message A (qpn 1, psn 0): inject 0, queue, stall 1us, tx, deliver, release.
		{At: us(0), Kind: EvInject, TID: 1, Node: 0, Arg: ArgMsg(1, 100, 0)},
		{At: us(0), Kind: EvQueue, TID: 1, Port: 0},
		{At: us(2), Kind: EvStall, TID: 1, Port: 0},   // queued 2us behind others
		{At: us(3), Kind: EvTxStart, TID: 1, Port: 0}, // stalled 1us on credits
		{At: us(5), Kind: EvDeliver, TID: 1, Node: 1}, // ser+flight 2us
		{At: us(9), Kind: EvRelease, TID: 1, Node: 1}, // rx hold 4us, all pend
		// message B (qpn 1, psn 1): first flight refused, replay delivered.
		{At: us(10), Kind: EvInject, TID: 2, Node: 0, Arg: ArgMsg(1, 100, 1)},
		{At: us(10), Kind: EvQueue, TID: 2, Port: 0},
		{At: us(10), Kind: EvTxStart, TID: 2, Port: 0},
		{At: us(12), Kind: EvDeliver, TID: 2, Node: 1},
		{At: us(12), Kind: EvRefuse, TID: 2, Node: 1, Arg: ArgMsg(1, 0, 1)},
		{At: us(12), Kind: EvRelease, TID: 2, Node: 1},
		{At: us(14), Kind: EvNakRx, Node: 0, Arg: ArgQP(1, 2_000_000)}, // backoff armed
		{At: us(17), Kind: EvRetx, Node: 0, Arg: ArgQP(1, 1)},          // 3us backoff
		{At: us(17), Kind: EvInject, TID: 3, Node: 0, Arg: ArgMsg(1, 100, 1)},
		{At: us(17), Kind: EvQueue, TID: 3, Port: 0},
		{At: us(17), Kind: EvTxStart, TID: 3, Port: 0},
		{At: us(19), Kind: EvDeliver, TID: 3, Node: 1},
		{At: us(22), Kind: EvRelease, TID: 3, Node: 1},
	}
}

func synthCalib() Calib {
	return Calib{
		WireIdeal: func(bytes, hops int) units.Time { return 2 * units.Microsecond },
	}
}

func TestAttributeConservesSynthetic(t *testing.T) {
	rep := Attribute(synthEvents(), synthCalib())
	if len(rep.Msgs) != 2 {
		t.Fatalf("completed %d messages, want 2", len(rep.Msgs))
	}
	a, b := rep.Msgs[0], rep.Msgs[1]
	if a.PSN != 0 || b.PSN != 1 {
		t.Fatalf("order: %v %v", a.PSN, b.PSN)
	}
	// A: measured 9us = ideal 2 + queue 2 + stall 1 + pend 4.
	if a.Measured() != 9*units.Microsecond || a.Ideal != 2*units.Microsecond || a.Queue != 2*units.Microsecond ||
		a.Stall != 1*units.Microsecond || a.Pend != 4*units.Microsecond {
		t.Fatalf("msg A attribution: %+v", a)
	}
	if a.Residual() != 0 {
		t.Fatalf("msg A residual %v", a.Residual())
	}
	// B: measured 12us = ideal 2 + pend 3 + backoff 3 + waste 4 (nak
	// return + replay gap).
	if b.Flights != 2 || b.Pend != 3*units.Microsecond || b.Backoff != 3*units.Microsecond || b.Waste != 4*units.Microsecond {
		t.Fatalf("msg B attribution: %+v", b)
	}
	if b.Residual() != 0 {
		t.Fatalf("msg B residual %v", b.Residual())
	}
	if rep.MaxResidual() != 0 || rep.Incomplete != 0 {
		t.Fatalf("report: maxres=%v incomplete=%d", rep.MaxResidual(), rep.Incomplete)
	}
	if rep.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestWriteChromeParses(t *testing.T) {
	tr := New(64)
	tr.Port("host0.egress")
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr, synthEvents()); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(out) < len(synthEvents()) {
		t.Fatalf("export has %d records for %d events", len(out), len(synthEvents()))
	}
}
