package pcie

import (
	"bytes"
	"testing"
	"testing/quick"

	"breakband/internal/memsim"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// collector is a scriptable endpoint.
type collector struct {
	k    *sim.Kernel
	got  []*TLP
	at   []units.Time
	hook func(t *TLP)
}

func (c *collector) RxTLP(t *TLP) {
	c.got = append(c.got, t)
	c.at = append(c.at, c.k.Now())
	if c.hook != nil {
		c.hook(t)
	}
}

func testLink(cfg LinkConfig) (*sim.Kernel, *Link, *collector, *collector) {
	k := sim.NewKernel()
	l := NewLink(k, cfg)
	rc := &collector{k: k}
	ep := &collector{k: k}
	l.SetRCSide(rc)
	l.SetEndpointSide(ep)
	return k, l, rc, ep
}

// simpleCfg has DefaultLinkConfig's credit pools, which the timing tests'
// few TLPs never exhaust.
func simpleCfg() LinkConfig {
	d := DefaultLinkConfig()
	return LinkConfig{
		Prop:             units.Nanoseconds(100),
		PerByte:          units.Time(64),
		TLPHeader:        24,
		DLLPBytes:        8,
		AckDelay:         units.Nanoseconds(2),
		PostedCredits:    d.PostedCredits,
		NonPostedCredits: d.NonPostedCredits,
	}
}

func TestMWrDeliveryLatency(t *testing.T) {
	k, l, _, ep := testLink(simpleCfg())
	k.At(0, func() {
		l.SendDown(&TLP{Type: MWr, Addr: 1, Data: make([]byte, 64)})
	})
	k.Run()
	if len(ep.got) != 1 {
		t.Fatalf("delivered %d TLPs", len(ep.got))
	}
	// serialize (64+24)*64ps = 5.632ns, plus 100ns prop.
	want := units.Nanoseconds(105.632)
	if ep.at[0] != want {
		t.Errorf("arrival at %v, want %v", ep.at[0], want)
	}
}

func TestOrderingPreserved(t *testing.T) {
	k, l, _, ep := testLink(simpleCfg())
	k.At(0, func() {
		l.SendDown(&TLP{Type: MWr, Addr: 1, Data: make([]byte, 256)}) // big first
		l.SendDown(&TLP{Type: MWr, Addr: 2, Data: make([]byte, 8)})   // small second
	})
	k.Run()
	if len(ep.got) != 2 || ep.got[0].Addr != 1 || ep.got[1].Addr != 2 {
		t.Fatalf("order broken: %+v", ep.got)
	}
	if ep.at[1] < ep.at[0] {
		t.Error("second TLP arrived before first")
	}
}

func TestSerializationContention(t *testing.T) {
	// Two same-size TLPs sent at the same instant arrive one
	// serialization apart: the link is a shared serial resource.
	k, l, _, ep := testLink(simpleCfg())
	k.At(0, func() {
		l.SendDown(&TLP{Type: MWr, Addr: 1, Data: make([]byte, 64)})
		l.SendDown(&TLP{Type: MWr, Addr: 2, Data: make([]byte, 64)})
	})
	k.Run()
	ser := units.Time(88) * 64
	if ep.at[1]-ep.at[0] != ser {
		t.Errorf("spacing %v, want %v", ep.at[1]-ep.at[0], ser)
	}
}

func TestSeqAssignedInOrder(t *testing.T) {
	k, l, _, ep := testLink(simpleCfg())
	k.At(0, func() {
		for i := 0; i < 5; i++ {
			l.SendDown(&TLP{Type: MWr, Addr: uint64(i), Data: make([]byte, 8)})
		}
	})
	k.Run()
	for i, tlp := range ep.got {
		if tlp.Seq != uint64(i) {
			t.Errorf("seq[%d] = %d", i, tlp.Seq)
		}
	}
}

func TestCreditBlockingAndUnblock(t *testing.T) {
	cfg := simpleCfg()
	cfg.PostedCredits = Credits{Hdr: 2, Data: 8}
	cfg.NonPostedCredits = Credits{Hdr: 2}
	k, l, _, ep := testLink(cfg)
	k.At(0, func() {
		for i := 0; i < 6; i++ {
			l.SendDown(&TLP{Type: MWr, Addr: uint64(i), Data: make([]byte, 64)})
		}
	})
	k.Run()
	if len(ep.got) != 6 {
		t.Fatalf("only %d of 6 TLPs delivered; credits never returned?", len(ep.got))
	}
	down, _ := l.Blocked()
	if down == 0 {
		t.Error("expected credit-blocked sends with tiny credit pool")
	}
	// Order must survive blocking.
	for i, tlp := range ep.got {
		if tlp.Addr != uint64(i) {
			t.Fatalf("order broken after credit stall: %v", ep.got)
		}
	}
}

func TestSmallMWrCannotPassBlockedLargeMWr(t *testing.T) {
	// PCIe ordering: a posted write must not pass a blocked posted write,
	// even when the smaller write's credits are available. This is the
	// producer-consumer guarantee the NIC's recv path relies on — the CQE
	// MWr announcing a completion must not reach host memory before the
	// payload MWr it describes.
	cfg := simpleCfg()
	cfg.PostedCredits = Credits{Hdr: 4, Data: 8} // 8B fits, 4 KiB (256) never does at once
	cfg.RxProcess = units.Nanoseconds(50)
	k, l, _, ep := testLink(cfg)
	k.At(0, func() {
		// Consume the data pool so the big write pends.
		l.SendDown(&TLP{Type: MWr, Addr: 0, Data: make([]byte, 128)})
		l.SendDown(&TLP{Type: MWr, Addr: 1, Data: make([]byte, 128)}) // pends
		l.SendDown(&TLP{Type: MWr, Addr: 2, Data: make([]byte, 8)})   // must wait behind it
	})
	k.Run()
	if len(ep.got) != 3 {
		t.Fatalf("delivered %d of 3 TLPs", len(ep.got))
	}
	for i, tlp := range ep.got {
		if tlp.Addr != uint64(i) {
			t.Fatalf("posted write passed a blocked posted write: order %v %v %v",
				ep.got[0].Addr, ep.got[1].Addr, ep.got[2].Addr)
		}
	}
}

func TestPostedMayPassBlockedNonPosted(t *testing.T) {
	// The converse allowance (PCIe deadlock avoidance): a posted write may
	// pass non-posted reads blocked on their own credit pool.
	cfg := simpleCfg()
	cfg.PostedCredits = Credits{Hdr: 4, Data: 64}
	cfg.NonPostedCredits = Credits{Hdr: 1}
	cfg.RxProcess = units.Nanoseconds(50)
	k, l, rc, _ := testLink(cfg)
	k.At(0, func() {
		l.SendUp(&TLP{Type: MRd, Addr: 0, ReadLen: 8, Tag: 0})
		l.SendUp(&TLP{Type: MRd, Addr: 1, ReadLen: 8, Tag: 1}) // pends (1 NP header credit)
		l.SendUp(&TLP{Type: MWr, Addr: 2, Data: make([]byte, 8)})
	})
	k.Run()
	if len(rc.got) != 3 {
		t.Fatalf("delivered %d of 3 TLPs", len(rc.got))
	}
	// The posted write (addr 2) must arrive before the blocked read
	// (addr 1) rather than queueing behind it.
	if rc.got[1].Addr != 2 || rc.got[2].Addr != 1 {
		t.Fatalf("posted write queued behind a blocked non-posted read: order %v %v %v",
			rc.got[0].Addr, rc.got[1].Addr, rc.got[2].Addr)
	}
}

func TestQuickCreditConservation(t *testing.T) {
	// Property: any number of MWr posts eventually all deliver (credits
	// are always returned), in order.
	f := func(nRaw uint8, sizeSel []uint8) bool {
		n := int(nRaw%40) + 1
		cfg := simpleCfg()
		cfg.PostedCredits = Credits{Hdr: 3, Data: 12}
		cfg.NonPostedCredits = Credits{Hdr: 2}
		k, l, _, ep := testLink(cfg)
		k.At(0, func() {
			for i := 0; i < n; i++ {
				size := 8
				if len(sizeSel) > 0 && sizeSel[i%len(sizeSel)]%2 == 0 {
					size = 64
				}
				l.SendDown(&TLP{Type: MWr, Addr: uint64(i), Data: make([]byte, size)})
			}
		})
		k.SetEventLimit(100000)
		k.Run()
		if len(ep.got) != n {
			return false
		}
		for i, tlp := range ep.got {
			if tlp.Addr != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMRdGetsCplD(t *testing.T) {
	k := sim.NewKernel()
	cfg := simpleCfg()
	l := NewLink(k, cfg)
	mem := memsim.New(4096)
	reg := mem.Alloc("data", 64, 8)
	mem.Write(reg.Base, []byte{0xAA, 0xBB, 0xCC, 0xDD})
	rc := NewRootComplex(k, mem, l, RCConfig{
		RCToMemBase: units.Nanoseconds(240), RCToMemBaseBytes: 64,
		MemReadLatency: units.Nanoseconds(150),
	})
	_ = rc
	ep := &collector{k: k}
	l.SetEndpointSide(ep)
	k.At(0, func() {
		l.SendUp(&TLP{Type: MRd, Addr: reg.Base, ReadLen: 4, Tag: 9})
	})
	k.Run()
	if len(ep.got) != 1 || ep.got[0].Type != CplD {
		t.Fatalf("expected one CplD, got %+v", ep.got)
	}
	if ep.got[0].Tag != 9 || !bytes.Equal(ep.got[0].Data, []byte{0xAA, 0xBB, 0xCC, 0xDD}) {
		t.Errorf("CplD content wrong: %+v", ep.got[0])
	}
}

func TestRCCommitDelay(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, simpleCfg())
	mem := memsim.New(4096)
	buf := mem.Alloc("buf", 64, 8)
	rc := NewRootComplex(k, mem, l, RCConfig{
		RCToMemBase: units.Nanoseconds(240.96), RCToMemBaseBytes: 64,
	})
	var commitAt units.Time
	mem.Watch(buf.Base, int(buf.Size), func(any) { commitAt = k.Now() }, rc)
	ep := &collector{k: k}
	l.SetEndpointSide(ep)
	k.At(0, func() {
		l.SendUp(&TLP{Type: MWr, Addr: buf.Base, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	})
	k.Run()
	if rc.Commits != 1 {
		t.Fatal("no commit")
	}
	// serialize (8+24)*64ps = 2.048 + prop 100 + RC-to-MEM 240.96.
	want := units.Nanoseconds(343.008)
	if commitAt != want {
		t.Errorf("commit at %v, want %v", commitAt, want)
	}
	if !bytes.Equal(mem.Read(buf.Base, 8), []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Error("payload not in memory")
	}
}

func TestMMIOWriteRequiresBAR(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, simpleCfg())
	mem := memsim.New(4096)
	rc := NewRootComplex(k, mem, l, RCConfig{})
	defer func() {
		if recover() == nil {
			t.Error("MMIO write to DRAM address did not panic")
		}
	}()
	rc.MMIOWrite(0x1000, []byte{1})
}

func TestMMIOWriteCopiesData(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, simpleCfg())
	mem := memsim.New(4096)
	rc := NewRootComplex(k, mem, l, RCConfig{})
	ep := &collector{k: k}
	l.SetEndpointSide(ep)
	buf := []byte{1, 2, 3}
	k.At(0, func() {
		rc.MMIOWrite(BARBase, buf)
		buf[0] = 99 // caller reuses the buffer immediately
	})
	k.Run()
	if ep.got[0].Data[0] != 1 {
		t.Error("MMIO write aliased the caller's buffer")
	}
}

func TestRCToMemSizing(t *testing.T) {
	cfg := RCConfig{
		RCToMemBase:      units.Nanoseconds(240),
		RCToMemPerByte:   units.Time(500),
		RCToMemBaseBytes: 64,
	}
	if cfg.RCToMem(8) != units.Nanoseconds(240) {
		t.Error("sub-baseline write should cost the base")
	}
	if cfg.RCToMem(128) != units.Nanoseconds(240)+64*500 {
		t.Error("per-byte slope not applied")
	}
}

func TestCreditsFor(t *testing.T) {
	kind, c := creditsFor(&TLP{Type: MWr, Data: make([]byte, 64)})
	if kind != Posted || c.Hdr != 1 || c.Data != 4 {
		t.Errorf("MWr credits = %v %+v", kind, c)
	}
	kind, c = creditsFor(&TLP{Type: MRd, ReadLen: 64})
	if kind != NonPosted || c.Hdr != 1 || c.Data != 0 {
		t.Errorf("MRd credits = %v %+v", kind, c)
	}
	_, c = creditsFor(&TLP{Type: CplD, Data: make([]byte, 64)})
	if c.Hdr != 0 {
		t.Error("CplD should not consume flow-controlled credits here")
	}
}

func TestStringers(t *testing.T) {
	if MWr.String() != "MWr" || MRd.String() != "MRd" || CplD.String() != "CplD" {
		t.Error("TLP type strings")
	}
	if Ack.String() != "Ack" || UpdateFC.String() != "UpdateFC" || Nack.String() != "Nack" {
		t.Error("DLLP type strings")
	}
	if Down.String() != "down" || Up.String() != "up" {
		t.Error("direction strings")
	}
}

func TestWireBytes(t *testing.T) {
	tlp := &TLP{Type: MWr, Data: make([]byte, 64)}
	if tlp.WireBytes(24) != 88 {
		t.Errorf("WireBytes = %d", tlp.WireBytes(24))
	}
	rd := &TLP{Type: MRd, ReadLen: 64}
	if rd.WireBytes(24) != 24 {
		t.Errorf("MRd WireBytes = %d", rd.WireBytes(24))
	}
}

func TestTLPPoolReuse(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, simpleCfg())
	tlp := l.NewTLP()
	tlp.Type = MWr
	tlp.SetData([]byte{1, 2, 3})
	ref := tlp.Ref()
	if ref.Get() != tlp {
		t.Fatal("fresh ref does not resolve")
	}
	tlp.Release()
	if ref.Get() != nil {
		t.Error("stale ref resolved after release")
	}
	again := l.NewTLP()
	if again != tlp {
		t.Error("released slot not reused")
	}
	if len(again.Data) != 0 || again.Type != 0 {
		t.Errorf("recycled TLP not reset: %+v", again)
	}
	if again.Ref().Get() != again {
		t.Error("recycled TLP's new ref does not resolve")
	}
	if ref.Get() != nil {
		t.Error("old-generation ref resolved against the recycled slot")
	}
}

func TestTLPDoubleReleasePanics(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, simpleCfg())
	tlp := l.NewTLP()
	tlp.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	tlp.Release()
}

func TestUnpooledTLPReleaseIsNoop(t *testing.T) {
	tlp := &TLP{Type: MWr}
	tlp.Release() // must not panic
	if tlp.Ref().Get() != nil {
		t.Error("unpooled TLP ref should resolve to nil")
	}
}

func TestSetDataCopiesAndGrowDataReuses(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, simpleCfg())
	tlp := l.NewTLP()
	src := []byte{1, 2, 3, 4}
	tlp.SetData(src)
	src[0] = 99
	if tlp.Data[0] != 1 {
		t.Error("SetData aliased the caller's buffer")
	}
	buf := tlp.GrowData(2)
	if len(buf) != 2 {
		t.Errorf("GrowData len = %d", len(buf))
	}
	tlp.Release()
	reused := l.NewTLP()
	if cap(reused.Data) < 4 {
		t.Error("recycled TLP lost its payload capacity")
	}
}

func TestPooledTLPRoundTripThroughLink(t *testing.T) {
	// A pooled TLP delivered to a test receiver stays valid as long as the
	// receiver (its owner) has not released it.
	k, l, _, ep := testLink(simpleCfg())
	_ = k
	tlp := l.NewTLP()
	tlp.Type = MWr
	tlp.Addr = 42
	tlp.SetData([]byte{9, 8})
	k.At(0, func() { l.SendDown(tlp) })
	k.Run()
	if len(ep.got) != 1 || ep.got[0].Addr != 42 || !bytes.Equal(ep.got[0].Data, []byte{9, 8}) {
		t.Fatalf("pooled TLP mangled in flight: %+v", ep.got)
	}
	ep.got[0].Release()
}
