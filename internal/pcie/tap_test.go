package pcie_test

import (
	"math"
	"slices"
	"testing"

	"breakband/internal/analyzer"
	"breakband/internal/pcie"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// sink is an endpoint that timestamps and releases every TLP it receives.
type sink struct {
	k  *sim.Kernel
	at []units.Time
}

func (s *sink) RxTLP(t *pcie.TLP) {
	s.at = append(s.at, s.k.Now())
	t.Release()
}

// tapRun is what one run of tapTraffic leaves behind.
type tapRun struct {
	tap          *analyzer.Analyzer
	fired        uint64
	down, up     []units.Time // TLP delivery instants per direction
	busyDown     units.Time
	busyUp       units.Time
	tlpUse, dUse int
}

// tapTraffic runs nDown 64-byte downstream writes as one burst at t=0 (so
// some wait on posted credits) and nUp 8-byte upstream writes 37 ns apart,
// on a flow-controlled link with or without an analyzer.
func tapTraffic(tapped bool, nDown, nUp int) tapRun {
	k := sim.NewKernel()
	l := pcie.NewLink(k, units.Nanoseconds(134))
	rc, ep := &sink{k: k}, &sink{k: k}
	l.SetRCSide(rc)
	l.SetEndpointSide(ep)
	var r tapRun
	if tapped {
		r.tap = analyzer.New("test")
		l.SetTap(r.tap)
	}
	send := func(up bool, n int) {
		t := l.NewTLP()
		t.Type = pcie.MWr
		t.Addr = 0x1000
		t.SetData(make([]byte, n))
		if up {
			l.SendUp(t)
		} else {
			l.SendDown(t)
		}
	}
	k.At(0, func() {
		for i := 0; i < nDown; i++ {
			send(false, 64)
		}
	})
	for i := 0; i < nUp; i++ {
		k.At(units.Nanoseconds(float64(37*i)), func() { send(true, 8) })
	}
	k.Run()
	r.fired = k.Fired()
	r.down, r.up = ep.at, rc.at
	r.busyDown, r.busyUp = l.BusyUntil()
	r.tlpUse, r.dUse = l.InUsePackets()
	return r
}

// TestUntappedLinkSkipsTapOnlyEvents: a link without a tap delivers every
// TLP at the same instant and keeps the same serializer schedule as a
// tapped one, but fires no tap event for an upstream TLP or DLLP, no
// arrival for an ACK, and no arrival for an UpdateFC whose channel has
// nothing pended. The tapped link still records every ACK, and its TLP to
// ACK round trips are the ones the link produced before untapped links
// dropped those events.
func TestUntappedLinkSkipsTapOnlyEvents(t *testing.T) {
	const nDown, nUp = 40, 25
	on, off := tapTraffic(true, nDown, nUp), tapTraffic(false, nDown, nUp)
	if len(on.down) != nDown || len(on.up) != nUp {
		t.Fatalf("tapped link delivered %d down and %d up TLPs, want %d and %d", len(on.down), len(on.up), nDown, nUp)
	}
	if !slices.Equal(on.down, off.down) || !slices.Equal(on.up, off.up) {
		t.Errorf("delivery instants differ:\ntapped   %v %v\nuntapped %v %v", on.down, on.up, off.down, off.up)
	}
	if on.busyDown != off.busyDown || on.busyUp != off.busyUp {
		t.Errorf("serializers differ: tapped busy until %v/%v, untapped %v/%v",
			on.busyDown, on.busyUp, off.busyDown, off.busyUp)
	}
	for _, r := range []tapRun{on, off} {
		if r.tlpUse != 0 || r.dUse != 0 {
			t.Errorf("tapped=%v: pools not drained: %d TLPs, %d DLLPs", r.tap != nil, r.tlpUse, r.dUse)
		}
	}

	// Every downstream TLP sends an ACK and an UpdateFC up, every upstream
	// TLP an ACK and an UpdateFC down, each pair from one event. Untapped,
	// the link skips the departure tap of each upstream TLP (nUp) and
	// upstream DLLP (2*nDown), and the arrival of every ACK (nDown + nUp).
	// It also reserves the arrival of each UpdateFC sent while its channel
	// has nothing pended: every upstream TLP's, and the downstream TLPs'
	// but for the first 31, whose UpdateFCs leave while the burst's last
	// credit-blocked write still waits. The tapped link fires one DLLP
	// event per TLP and every arrival.
	const pendedFC = 31
	if on.fired != 391 {
		t.Errorf("tapped link fired %d events, want 391", on.fired)
	}
	if want := uint64(3*nDown + 2*nUp + nDown + nUp - pendedFC); on.fired-off.fired != want {
		t.Errorf("untapped link fired %d events, tapped %d: want exactly %d fewer", off.fired, on.fired, want)
	}

	acks := on.tap.Filter(func(r analyzer.Record) bool { return !r.IsTLP && r.DLLPType == pcie.Ack })
	if len(acks) != nDown+nUp {
		t.Errorf("tap recorded %d ACKs, want %d", len(acks), nDown+nUp)
	}
	// The upstream writes' round trips as the link measured them before
	// untapped links dropped their tap-only events. Uncontended, one is
	// (2*Prop + AckDelay + DLLP serialization)/2 = 135.256 ns; the first
	// two and the fifth queue behind the downstream burst.
	rt := on.tap.AckRoundTrips(pcie.Up, pcie.MWr)
	if rt.N() != nUp || math.Abs(rt.Mean()-136.2552) > 1e-9 {
		t.Errorf("upstream ACK round trips: n=%d mean=%v, want n=%d mean=136.2552", rt.N(), rt.Mean(), nUp)
	}
	if q := rt.Quantile(0.5); q != 135.256 {
		t.Errorf("median upstream ACK round trip %v, want the uncontended 135.256", q)
	}
}
