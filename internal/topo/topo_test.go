package topo

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// testCfg mirrors the calibration shape with round numbers: 270 ns total
// wire, 108 ns switch. Frames serialize at fabric.SerTime's 80 ps/B with
// 30 B of frame overhead.
func testCfg() fabric.Config {
	return fabric.Config{
		WireProp:      units.Nanoseconds(270),
		SwitchLatency: units.Nanoseconds(108),
	}
}

// port records deliveries and releases every frame (optionally acking data
// frames first).
type port struct {
	k    *sim.Kernel
	fab  *Fabric
	got  []fabric.FrameKind
	at   []units.Time
	info []fabric.AckInfo // Ack field of every delivered frame
	ack  bool
}

func (p *port) RxFrame(f *fabric.Frame) {
	p.got = append(p.got, f.Kind)
	p.at = append(p.at, p.k.Now())
	p.info = append(p.info, f.Ack)
	if p.ack && f.Kind == fabric.Data {
		p.fab.Send(p.fab.AckFor(f, fabric.AckInfo{QPN: f.Op.SrcQPN, Counter: f.Op.Counter}))
	}
	f.Release()
}

func build(t *testing.T, cfg fabric.Config, spec Spec, hosts int) (*sim.Kernel, *Fabric, []*port) {
	t.Helper()
	k := sim.NewKernel()
	fab := NewFabric(k, cfg, spec, hosts)
	ports := make([]*port, hosts)
	for i := range ports {
		ports[i] = &port{k: k, fab: fab}
		fab.Attach(i, ports[i])
	}
	return k, fab, ports
}

// sendAt schedules a pooled data frame of b payload bytes.
func sendAt(k *sim.Kernel, fab *Fabric, at units.Time, src, dst, b int) {
	k.At(at, func() {
		f := fab.NewFrame()
		f.Kind = fabric.Data
		f.Src = src
		f.Dst = dst
		f.Bytes = b
		fab.Send(f)
	})
}

func TestSpecResolve(t *testing.T) {
	cases := []struct {
		spec  Spec
		hosts int
		want  Kind
	}{
		{Spec{}, 2, SingleSwitch}, // auto is a switch, also for two hosts
		{Spec{}, 5, SingleSwitch},
		{Spec{Kind: BackToBack}, 2, BackToBack},
		{Spec{Kind: FatTree}, 8, FatTree},
	}
	for _, c := range cases {
		r, err := c.spec.Resolve(c.hosts)
		if err != nil {
			t.Fatalf("Resolve(%v, %d hosts): %v", c.spec, c.hosts, err)
		}
		if r.Kind != c.want {
			t.Errorf("Resolve(%v, %d hosts): kind %v, want %v", c.spec, c.hosts, r.Kind, c.want)
		}
		if r.Credits != DefaultCredits {
			t.Errorf("Resolve(%v): credits %d, want default %d", c.spec, r.Credits, DefaultCredits)
		}
	}
	// Fat-tree default radix: smallest even k with k*k/2 >= hosts.
	if r, _ := (Spec{Kind: FatTree}).Resolve(8); r.Radix != 4 {
		t.Errorf("fattree(8 hosts) default radix %d, want 4", r.Radix)
	}
	if r, _ := (Spec{Kind: FatTree}).Resolve(9); r.Radix != 6 {
		t.Errorf("fattree(9 hosts) default radix %d, want 6", r.Radix)
	}
}

func TestSpecValidationPanics(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		hosts int
		msg   string
	}{
		{"one host", Spec{}, 1, "at least two hosts"},
		{"backtoback n=3", Spec{Kind: BackToBack}, 3, "exactly 2 hosts"},
		{"odd radix", Spec{Kind: FatTree, Radix: 3}, 4, "even"},
		{"radix too small", Spec{Kind: FatTree, Radix: 2}, 4, "at most 2 hosts"},
		{"negative credits", Spec{Credits: -1}, 2, "positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic")
				}
				if !strings.Contains(fmt.Sprint(r), c.msg) {
					t.Errorf("panic %q does not mention %q", r, c.msg)
				}
			}()
			NewFabric(sim.NewKernel(), testCfg(), c.spec, c.hosts)
		})
	}
}

// TestIdealTierMatchesNetwork drives one frame schedule through both
// two-host kinds and requires every delivery at the closed-form time of the
// paper's two-endpoint Network = Wire + Switch model: each source's egress
// serializes its frames back to back, busy[src] = max(at, busy[src]) +
// SerTime(b), and a frame arrives busy[src] + WireProp later, plus
// SwitchLatency on the single-switch shape. The golden fixture relies on
// this tier bit for bit.
func TestIdealTierMatchesNetwork(t *testing.T) {
	cfg := testCfg()
	// Pipelined sends (egress serialization), a reverse-direction frame,
	// different sizes.
	sched := []struct {
		at              units.Time
		src, dst, bytes int
	}{
		{0, 0, 1, 8},
		{0, 0, 1, 64},
		{units.Nanoseconds(100), 1, 0, 8},
		{units.Nanoseconds(400), 0, 1, 2048},
	}
	for _, kind := range []Kind{BackToBack, SingleSwitch} {
		flight := cfg.WireProp
		if kind == SingleSwitch {
			flight += cfg.SwitchLatency
		}
		// Reference arrivals per destination; each destination has one
		// source here, so schedule order is arrival order.
		var busy [2]units.Time
		want := make([][]units.Time, 2)
		for _, s := range sched {
			busy[s.src] = units.Max(s.at, busy[s.src]) + fabric.SerTime(s.bytes)
			want[s.dst] = append(want[s.dst], busy[s.src]+flight)
		}

		k, fab, ports := build(t, cfg, Spec{Kind: kind}, 2)
		if got := fab.Spec().Kind; got != kind {
			t.Fatalf("spec %v compiled as %v", kind, got)
		}
		for _, s := range sched {
			sendAt(k, fab, s.at, s.src, s.dst, s.bytes)
		}
		k.Run()
		for dst, p := range ports {
			if len(p.at) != len(want[dst]) {
				t.Fatalf("%v: %d deliveries at host %d, want %d", kind, len(p.at), dst, len(want[dst]))
			}
			for i := range p.at {
				if p.at[i] != want[dst][i] {
					t.Errorf("%v: delivery %d at host %d at %v, want %v", kind, i, dst, p.at[i], want[dst][i])
				}
			}
		}
		// The first frame left an idle egress: the uncontended wire time.
		if got := fab.UncontendedWire(sched[0].bytes, 1); got != want[1][0] {
			t.Errorf("%v: UncontendedWire = %v, want the first arrival %v", kind, got, want[1][0])
		}
		if n := fab.InUseFrames(); n != 0 {
			t.Errorf("%v: %d frames leaked", kind, n)
		}
	}
}

// rxFunc adapts a func to fabric.Port.
type rxFunc func(*fabric.Frame)

func (fn rxFunc) RxFrame(f *fabric.Frame) { fn(f) }

// TestStarUncontendedLatency pins the engine's per-hop arithmetic: one
// 8-byte frame through an N=3 star costs two serializations, the full
// cable flight (two half-cables) and one switch forwarding latency.
func TestStarUncontendedLatency(t *testing.T) {
	k, fab, ports := build(t, testCfg(), Spec{}, 3)
	sendAt(k, fab, 0, 0, 1, 8)
	k.Run()
	if len(ports[1].at) != 1 {
		t.Fatal("no delivery")
	}
	ser := units.Nanoseconds(3.04) // (8+30)*80ps
	want := 2*ser + units.Nanoseconds(270) + units.Nanoseconds(108)
	if ports[1].at[0] != want {
		t.Errorf("arrival %v, want %v", ports[1].at[0], want)
	}
	if got := fab.UncontendedWire(8, 2); got != want {
		t.Errorf("UncontendedWire(8, 2) = %v, want %v", got, want)
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("%d frames leaked", fab.InUseFrames())
	}
}

// TestStarOutputPortContention: two same-instant frames from different
// sources to one destination share the switch output port; the second is
// serialized behind the first.
func TestStarOutputPortContention(t *testing.T) {
	k, fab, ports := build(t, testCfg(), Spec{}, 3)
	sendAt(k, fab, 0, 0, 2, 8)
	sendAt(k, fab, 0, 1, 2, 8)
	k.Run()
	if len(ports[2].at) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(ports[2].at))
	}
	ser := units.Nanoseconds(3.04)
	if gap := ports[2].at[1] - ports[2].at[0]; gap != ser {
		t.Errorf("contended spacing %v, want one serialization %v", gap, ser)
	}
	if fab.MaxSwitchQueue() < 1 {
		t.Error("no switch queueing observed")
	}
}

// TestCreditBackpressure: with one credit per link, a burst from one host
// is paced by credit returns, stalling the injection port.
func TestCreditBackpressure(t *testing.T) {
	const burst = 5
	k, fab, ports := build(t, testCfg(), Spec{Credits: 1}, 3)
	k.At(0, func() {
		for i := 0; i < burst; i++ {
			f := fab.NewFrame()
			f.Kind = fabric.Data
			f.Src = 0
			f.Dst = 1
			f.Bytes = 8
			fab.Send(f)
		}
	})
	k.Run()
	if len(ports[1].at) != burst {
		t.Fatalf("got %d deliveries, want %d", len(ports[1].at), burst)
	}
	// With ample credits the injection port streams frames one
	// serialization apart; with one credit the next frame waits for the
	// previous one to clear the switch, so spacing must far exceed it.
	ser := units.Nanoseconds(3.04)
	for i := 1; i < burst; i++ {
		if gap := ports[1].at[i] - ports[1].at[i-1]; gap <= ser {
			t.Errorf("delivery %d only %v after %d; credits did not pace", i, gap, i-1)
		}
	}
	stats := fab.PortStats()
	var stalls uint64
	for _, s := range stats {
		if s.Name == "host0.egress" {
			stalls = s.CreditStalls
			if s.MaxQueue == 0 {
				t.Error("host0.egress never queued under credit pressure")
			}
		}
	}
	if stalls == 0 {
		t.Error("no credit stalls recorded")
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("%d frames leaked", fab.InUseFrames())
	}
}

// TestFatTreeShapeAndRouting pins the compiled Clos: 8 hosts at radix 4
// give 4 leaves and 2 spines, with destination-based up-path selection.
func TestFatTreeShapeAndRouting(t *testing.T) {
	_, fab, _ := build(t, testCfg(), Spec{Kind: FatTree}, 8)
	sws := fab.Switches()
	if len(sws) != 6 {
		t.Fatalf("%d switches, want 4 leaves + 2 spines", len(sws))
	}
	leaf0 := sws[0]
	if leaf0.Name() != "leaf0" || leaf0.Ports() != 4 {
		t.Errorf("leaf0: %q with %d ports, want 4", leaf0.Name(), leaf0.Ports())
	}
	// Host 1 is on leaf0 port 1; host 7 is cross-leaf via spine 7%2=1,
	// i.e. up port index 2+1.
	if got := leaf0.Route(1); got != 1 {
		t.Errorf("leaf0 route to host1 = port %d, want 1 (down)", got)
	}
	if got := leaf0.Route(7); got != 3 {
		t.Errorf("leaf0 route to host7 = port %d, want 3 (up to spine1)", got)
	}
	spine1 := sws[5]
	if spine1.Name() != "spine1" || spine1.Ports() != 4 {
		t.Errorf("spine1: %q with %d ports, want 4", spine1.Name(), spine1.Ports())
	}
	if got := spine1.Route(7); got != 3 {
		t.Errorf("spine1 route to host7 = port %d, want 3 (leaf3)", got)
	}
}

// TestFatTreePartialLeaf: a host count that only part-fills the last leaf
// must compile without phantom (unwired) ports and still route to it.
func TestFatTreePartialLeaf(t *testing.T) {
	k, fab, ports := build(t, testCfg(), Spec{Kind: FatTree, Radix: 4}, 5)
	// 5 hosts at radix 4: leaves 0-1 full (2 hosts), leaf2 holds host 4
	// alone — one down port plus two up ports.
	sws := fab.Switches()
	if len(sws) != 5 {
		t.Fatalf("%d switches, want 3 leaves + 2 spines", len(sws))
	}
	if leaf2 := sws[2]; leaf2.Name() != "leaf2" || leaf2.Ports() != 3 {
		t.Errorf("leaf2: %q with %d ports, want 3 (1 down + 2 up)", leaf2.Name(), leaf2.Ports())
	}
	for _, ps := range fab.PortStats() {
		if ps.Name == "" {
			t.Error("PortStats contains an unwired phantom port")
		}
	}
	sendAt(k, fab, 0, 0, 4, 8) // cross-leaf into the partial leaf
	k.Run()
	if len(ports[4].at) != 1 {
		t.Fatal("no delivery to the partial leaf's host")
	}
}

// TestFatTreeLatency pins same-leaf (one switch) vs cross-leaf (three
// switch) path latencies.
func TestFatTreeLatency(t *testing.T) {
	k, fab, ports := build(t, testCfg(), Spec{Kind: FatTree}, 8)
	sendAt(k, fab, 0, 0, 1, 8) // same leaf
	sendAt(k, fab, 0, 2, 5, 8) // cross leaf: leaf1 -> spine -> leaf2
	k.Run()
	ser := units.Nanoseconds(3.04)
	hop := units.Nanoseconds(135) // WireProp / 2
	sw := units.Nanoseconds(108)
	wantSame := 2*ser + 2*hop + sw
	wantCross := 4*ser + 4*hop + 3*sw
	if len(ports[1].at) != 1 || ports[1].at[0] != wantSame {
		t.Errorf("same-leaf arrival %v, want %v", ports[1].at, wantSame)
	}
	if len(ports[5].at) != 1 || ports[5].at[0] != wantCross {
		t.Errorf("cross-leaf arrival %v, want %v", ports[5].at, wantCross)
	}
	if got := fab.UncontendedWire(8, 2); got != wantSame {
		t.Errorf("UncontendedWire(8, 2) = %v, want the same-leaf arrival %v", got, wantSame)
	}
	if got := fab.UncontendedWire(8, 4); got != wantCross {
		t.Errorf("UncontendedWire(8, 4) = %v, want the cross-leaf arrival %v", got, wantCross)
	}
}

// TestSparseOutOfOrderAttach: ids need not be dense or ordered.
func TestSparseOutOfOrderAttach(t *testing.T) {
	k := sim.NewKernel()
	fab := NewFabric(k, testCfg(), Spec{}, 4)
	ports := map[int]*port{}
	for _, id := range []int{3, 0, 2, 1} {
		p := &port{k: k, fab: fab}
		ports[id] = p
		fab.Attach(id, p)
	}
	sendAt(k, fab, 0, 3, 0, 8)
	k.Run()
	if len(ports[0].at) != 1 {
		t.Fatal("sparse-order attach broke delivery")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	k := sim.NewKernel()
	fab := NewFabric(k, testCfg(), Spec{}, 3)
	fab.Attach(0, &port{k: k, fab: fab})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate attach did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "port id 0") || !strings.Contains(msg, "switch(") {
			t.Errorf("panic %q does not name the port and topology", msg)
		}
	}()
	fab.Attach(0, &port{k: k, fab: fab})
}

// TestSendPanicsNamePortAndTopology covers the two failure shapes: an
// unattached destination, and a destination attached under an id the
// topology never routed.
func TestSendPanicsNamePortAndTopology(t *testing.T) {
	expectPanic := func(t *testing.T, wantSub ...string) {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg := fmt.Sprint(r)
		for _, sub := range wantSub {
			if !strings.Contains(msg, sub) {
				t.Errorf("panic %q does not contain %q", msg, sub)
			}
		}
	}

	t.Run("unattached", func(t *testing.T) {
		k, fab, _ := build(t, testCfg(), Spec{}, 3)
		defer expectPanic(t, "no attached destination port 9", "switch(hosts=3")
		k.At(0, func() { fab.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 9}) })
		k.Run()
	})

	t.Run("attached but unrouted", func(t *testing.T) {
		k, fab, _ := build(t, testCfg(), Spec{}, 3)
		fab.Attach(7, &port{k: k, fab: fab}) // beyond the 3 routed hosts
		defer expectPanic(t, "port 7 is attached but not routed", "hosts 0..2", "switch(hosts=3")
		k.At(0, func() { fab.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 7}) })
		k.Run()
	})

	t.Run("unattached source", func(t *testing.T) {
		k, fab, _ := build(t, testCfg(), Spec{Kind: BackToBack}, 2)
		defer expectPanic(t, "no attached source port 9", "backtoback(hosts=2")
		k.At(0, func() { fab.Send(&fabric.Frame{Kind: fabric.Data, Src: 9, Dst: 1}) })
		k.Run()
	})

	t.Run("unrouted source", func(t *testing.T) {
		k, fab, _ := build(t, testCfg(), Spec{Kind: FatTree}, 4)
		fab.Attach(11, &port{k: k, fab: fab})
		defer expectPanic(t, "source port 11", "fattree(radix=4")
		k.At(0, func() { fab.Send(&fabric.Frame{Kind: fabric.Data, Src: 11, Dst: 0}) })
		k.Run()
	})
}

// TestAckRoundTripOverStar: the transport ACK crosses the star back to the
// initiator carrying the acked WQE's identity, and both pooled frames
// return to the pool — on the two-host ideal tier and on a compiled star.
func TestAckRoundTripOverStar(t *testing.T) {
	for _, hosts := range []int{2, 4} {
		k, fab, ports := build(t, testCfg(), Spec{}, hosts)
		dst := hosts - 1
		ports[dst].ack = true
		k.At(0, func() {
			f := fab.NewFrame()
			f.Kind = fabric.Data
			f.Dst = dst
			f.Bytes = 8
			f.Op = fabric.TxOp{SrcQPN: 7, Counter: 42}
			fab.Send(f)
		})
		k.Run()
		if len(ports[0].got) != 1 || ports[0].got[0] != fabric.TransportAck {
			t.Fatalf("hosts=%d: no transport ack at initiator: %v", hosts, ports[0].got)
		}
		if got := ports[0].info[0]; got != (fabric.AckInfo{QPN: 7, Counter: 42}) {
			t.Errorf("hosts=%d: ack info %+v, want QPN 7 counter 42", hosts, got)
		}
		// The data frame lands at dst, its ack at the initiator, and
		// nothing anywhere else.
		for i, p := range ports {
			want := map[int][]fabric.FrameKind{0: {fabric.TransportAck}, dst: {fabric.Data}}[i]
			if !slices.Equal(p.got, want) {
				t.Errorf("hosts=%d: port %d got %v, want %v", hosts, i, p.got, want)
			}
		}
		if fab.InUseFrames() != 0 {
			t.Errorf("hosts=%d: %d frames leaked after ack round trip", hosts, fab.InUseFrames())
		}
	}
}

// TestOnDepthHook observes queue growth during contention.
func TestOnDepthHook(t *testing.T) {
	k, fab, _ := build(t, testCfg(), Spec{}, 4)
	depthHits := map[string]int{}
	fab.OnDepth = func(at units.Time, port string, depth int) {
		if depth > depthHits[port] {
			depthHits[port] = depth
		}
	}
	for src := 0; src < 3; src++ {
		sendAt(k, fab, 0, src, 3, 1024)
	}
	k.Run()
	if depthHits["sw0.port3"] < 2 {
		t.Errorf("incast port depth %d, want >= 2 (hits: %v)", depthHits["sw0.port3"], depthHits)
	}
}

// TestDeterminism: two identical contended runs deliver at identical
// times.
func TestDeterminism(t *testing.T) {
	run := func() []units.Time {
		k, fab, ports := build(t, testCfg(), Spec{Kind: FatTree, Credits: 2}, 8)
		for src := 1; src < 8; src++ {
			for i := 0; i < 5; i++ {
				sendAt(k, fab, units.Time(i)*units.Nanoseconds(50), src, 0, 512)
			}
		}
		k.Run()
		return ports[0].at
	}
	a, b := run(), run()
	if len(a) != 35 || len(a) != len(b) {
		t.Fatalf("delivery counts %d vs %d, want 35", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v: run not deterministic", i, a[i], b[i])
		}
	}
}
