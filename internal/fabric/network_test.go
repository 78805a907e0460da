package fabric_test

import (
	"strings"
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/units"
)

// The tests in this file pin what the wire parameters of Config mean once
// frames travel: they drive the one network, topo.Fabric, whose two-host
// back-to-back and single-switch shapes are the paper's calibrated
// two-endpoint path (Network = Wire + Switch).

// port records deliveries, optionally acks data frames, and releases every
// frame it receives.
type port struct {
	k    *sim.Kernel
	fab  *topo.Fabric
	got  []fabric.FrameKind
	at   []units.Time
	info []fabric.AckInfo // Ack field of every delivered frame
	ack  bool             // auto-ack data frames
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

// build wires two hosts of the given shape: kind is topo.BackToBack for
// the switchless path, topo.SingleSwitch for the switched one.
func build(kind topo.Kind) (*sim.Kernel, *topo.Fabric, *port, *port) {
	k := sim.NewKernel()
	n := topo.NewFabric(k, cfgDirect(), topo.Spec{Kind: kind}, 2)
	a := &port{k: k, fab: n}
	b := &port{k: k, fab: n}
	n.Attach(0, a)
	n.Attach(1, b)
	return k, n, a, b
}

func cfgDirect() fabric.Config {
	return fabric.Config{
		WireProp:      units.Nanoseconds(270),
		SwitchLatency: units.Nanoseconds(108),
	}
}

// expectPanic fails t unless a panic is in flight whose message names
// every one of want.
func expectPanic(t *testing.T, what string, want ...string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Errorf("%s did not panic", what)
		return
	}
	msg, _ := r.(string)
	for _, w := range want {
		if !strings.Contains(msg, w) {
			t.Errorf("%s: panic %q does not mention %q", what, msg, w)
		}
	}
}

func TestDirectDelivery(t *testing.T) {
	k, n, _, b := build(topo.BackToBack)
	k.At(0, func() {
		n.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 1, Bytes: 8})
	})
	k.Run()
	if len(b.got) != 1 {
		t.Fatal("no delivery")
	}
	// serialize (8+30)*80ps = 3.04ns + 270 prop.
	want := units.Nanoseconds(273.04)
	if b.at[0] != want {
		t.Errorf("arrival %v, want %v", b.at[0], want)
	}
	if got := n.UncontendedWire(8, 1); got != want {
		t.Errorf("UncontendedWire(8, 1) = %v, want %v", got, want)
	}
}

func TestSwitchAddsLatency(t *testing.T) {
	k, n, _, b := build(topo.SingleSwitch)
	k.At(0, func() {
		n.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 1, Bytes: 8})
	})
	k.Run()
	if len(b.got) != 1 {
		t.Fatal("no delivery")
	}
	want := units.Nanoseconds(273.04 + 108)
	if b.at[0] != want {
		t.Errorf("switched arrival %v, want %v", b.at[0], want)
	}
}

func TestAckRoundTrip(t *testing.T) {
	k, n, a, b := build(topo.BackToBack)
	b.ack = true
	k.At(0, func() {
		n.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 1, Bytes: 8,
			Op: fabric.TxOp{SrcQPN: 7, Counter: 42}})
	})
	k.Run()
	if len(a.got) != 1 || a.got[0] != fabric.TransportAck {
		t.Fatalf("no transport ack: %v", a.got)
	}
	if a.info[0] != (fabric.AckInfo{QPN: 7, Counter: 42}) {
		t.Errorf("ack info lost: %+v", a.info[0])
	}
	if len(b.got) != 1 || b.got[0] != fabric.Data {
		t.Errorf("the target got %v, want the one data frame", b.got)
	}
	if n.InUseFrames() != 0 {
		t.Errorf("%d frames leaked after the ack round trip", n.InUseFrames())
	}
}

func TestEgressSerialization(t *testing.T) {
	k, n, _, b := build(topo.BackToBack)
	k.At(0, func() {
		n.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 1, Bytes: 8})
		n.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 1, Bytes: 8})
	})
	k.Run()
	if len(b.got) != 2 {
		t.Fatal("missing frames")
	}
	if b.at[1]-b.at[0] != units.Nanoseconds(3.04) {
		t.Errorf("spacing %v, want one serialization", b.at[1]-b.at[0])
	}
}

func TestUnknownPortPanics(t *testing.T) {
	k, n, _, _ := build(topo.BackToBack)
	defer expectPanic(t, "send to unknown port", "destination port 9")
	k.At(0, func() { n.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 9}) })
	k.Run()
}

func TestDuplicateAttachPanics(t *testing.T) {
	k := sim.NewKernel()
	n := topo.NewFabric(k, cfgDirect(), topo.Spec{Kind: topo.BackToBack}, 2)
	n.Attach(0, &port{k: k, fab: n})
	defer expectPanic(t, "duplicate attach", "duplicate port id 0")
	n.Attach(0, &port{k: k, fab: n})
}

func TestSparseOutOfOrderAttach(t *testing.T) {
	k := sim.NewKernel()
	n := topo.NewFabric(k, cfgDirect(), topo.Spec{}, 6)
	// Ids may be sparse and attached in any order; the compiled host
	// count must cover the largest id.
	ports := map[int]*port{}
	for _, id := range []int{5, 0, 3} {
		p := &port{k: k, fab: n}
		ports[id] = p
		n.Attach(id, p)
	}
	k.At(0, func() {
		for _, hop := range [][2]int{{5, 0}, {0, 3}} {
			f := n.NewFrame()
			f.Kind = fabric.Data
			f.Src, f.Dst = hop[0], hop[1]
			f.Bytes = 8
			n.Send(f)
		}
	})
	k.Run()
	if len(ports[0].got) != 1 || len(ports[3].got) != 1 {
		t.Errorf("sparse-order attach broke delivery: %d, %d deliveries",
			len(ports[0].got), len(ports[3].got))
	}
	if n.InUseFrames() != 0 {
		t.Errorf("%d frames leaked", n.InUseFrames())
	}
}

// TestOneWayMatchesSend pins the uncontended wire time to Send: on an idle
// egress, a frame arrives exactly UncontendedWire after it was sent (one
// serialization plus the flight), with and without the switch.
func TestOneWayMatchesSend(t *testing.T) {
	for _, kind := range []topo.Kind{topo.BackToBack, topo.SingleSwitch} {
		k, n, _, b := build(kind)
		k.At(0, func() { n.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 1, Bytes: 8}) })
		k.Run()
		if len(b.at) != 1 {
			t.Fatalf("%v: %d deliveries, want 1", kind, len(b.at))
		}
		if b.at[0] != n.UncontendedWire(8, 1) {
			t.Errorf("%v: Send arrived at %v, UncontendedWire reports %v", kind, b.at[0], n.UncontendedWire(8, 1))
		}
	}
}
