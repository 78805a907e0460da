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

// testProp and testRCToMem are the test links' one-way propagation and
// the test Root Complexes' commit latency, round numbers.
const (
	testProp    = 100 * units.Nanosecond
	testRCToMem = 240 * units.Nanosecond
)

func testLink() (*sim.Kernel, *Link, *collector, *collector) {
	k := sim.NewKernel()
	l := NewLink(k, testProp)
	rc := &collector{k: k}
	ep := &collector{k: k}
	l.SetRCSide(rc)
	l.SetEndpointSide(ep)
	return k, l, rc, ep
}

func TestMWrDeliveryLatency(t *testing.T) {
	k, l, _, ep := testLink()
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
	k, l, _, ep := testLink()
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
	k, l, _, ep := testLink()
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
	k, l, _, ep := testLink()
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
	// 40 small writes at once: the 33rd finds no posted header credit.
	const n = 40
	k, l, _, ep := testLink()
	k.At(0, func() {
		for i := 0; i < n; i++ {
			l.SendDown(&TLP{Type: MWr, Addr: uint64(i), Data: make([]byte, 64)})
		}
	})
	k.Run()
	if len(ep.got) != n {
		t.Fatalf("only %d of %d TLPs delivered; credits never returned?", len(ep.got), n)
	}
	if down, _ := l.Blocked(); down != n-postedHdrCredits {
		t.Errorf("%d sends blocked on credits, want the %d past the posted header pool", down, n-postedHdrCredits)
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
	k, l, _, ep := testLink()
	k.At(0, func() {
		// A 4 KiB write takes the whole posted data pool, so the second
		// pends and the 8-byte third, whose header credit is free, must
		// wait behind it.
		l.SendDown(&TLP{Type: MWr, Addr: 0, Data: make([]byte, 4096)})
		l.SendDown(&TLP{Type: MWr, Addr: 1, Data: make([]byte, 4096)}) // pends
		l.SendDown(&TLP{Type: MWr, Addr: 2, Data: make([]byte, 8)})    // must wait behind it
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

// TestUpdateFCIssuesBlockedWrite pins the credit-return instant: a 4 KiB
// MWr blocked behind another 4 KiB MWr, which took every posted data
// credit, issues exactly when the first write's UpdateFC arrives. That is
// the first TLP's delivery, plus AckDelay, plus the 8-byte serializations
// of the ACK and the UpdateFC queued behind it, plus the flight back: the
// terms perftest.PCIeWriteCycle sums.
func TestUpdateFCIssuesBlockedWrite(t *testing.T) {
	k, l, rc, _ := testLink()
	var issued []units.Time
	l.SetOnUpIssued(func(*TLP) { issued = append(issued, k.Now()) })
	k.At(0, func() {
		if !l.SendUp(&TLP{Type: MWr, Addr: 0, Data: make([]byte, 4096)}) {
			t.Error("the first 4 KiB write did not issue at once")
		}
		if l.SendUp(&TLP{Type: MWr, Addr: 1, Data: make([]byte, 4096)}) {
			t.Error("the second 4 KiB write issued without data credits")
		}
	})
	k.Run()
	if len(rc.at) != 2 || len(issued) != 1 {
		t.Fatalf("%d writes delivered and %d issued from the pend queue, want 2 and 1", len(rc.at), len(issued))
	}
	// (4096+24) B at 64 ps/B is 263.68 ns, so the first write lands at
	// 363.68 ns and its UpdateFC 2 + 2*0.512 + 100 ns later.
	want := rc.at[0] + AckDelay + 2*SerTime(DLLPBytes) + testProp
	if rc.at[0] != units.Nanoseconds(363.68) || want != units.Nanoseconds(466.704) {
		t.Errorf("first write delivered at %v, so its UpdateFC arrives at %v; want 363.68ns and 466.70ns", rc.at[0], want)
	}
	if issued[0] != want {
		t.Errorf("blocked write issued at %v, want %v when the UpdateFC arrives", issued[0], want)
	}
	if rc.at[1] != want+SerTime(4096+TLPHeader)+testProp {
		t.Errorf("blocked write delivered at %v, want one serialization and flight after %v", rc.at[1], want)
	}
}

func TestPostedMayPassBlockedNonPosted(t *testing.T) {
	// The converse allowance (PCIe deadlock avoidance): a posted write may
	// pass non-posted reads blocked on their own credit pool.
	// 17 reads: the last finds no non-posted header credit and pends.
	const reads = nonPostedHdrCredits + 1
	k, l, rc, _ := testLink()
	k.At(0, func() {
		for i := 0; i < reads; i++ {
			l.SendUp(&TLP{Type: MRd, Addr: uint64(i), ReadLen: 8, Tag: uint8(i)})
		}
		l.SendUp(&TLP{Type: MWr, Addr: reads, Data: make([]byte, 8)})
	})
	k.Run()
	if len(rc.got) != reads+1 {
		t.Fatalf("delivered %d of %d TLPs", len(rc.got), reads+1)
	}
	// The posted write (addr 17) must arrive before the blocked read
	// (addr 16) rather than queueing behind it.
	if rc.got[reads-1].Addr != reads || rc.got[reads].Addr != reads-1 {
		t.Fatalf("posted write queued behind a blocked non-posted read: last two %v %v",
			rc.got[reads-1].Addr, rc.got[reads].Addr)
	}
}

func TestQuickCreditConservation(t *testing.T) {
	// Property: any number of MWr posts eventually all deliver (credits
	// are always returned), in order. A 4 KiB write takes every posted
	// data credit and a 33rd write finds no posted header, so both pools
	// run dry.
	f := func(nRaw uint8, sizeSel []uint8) bool {
		n := int(nRaw%40) + 1
		k, l, _, ep := testLink()
		k.At(0, func() {
			for i := 0; i < n; i++ {
				size := 64
				if len(sizeSel) > 0 && sizeSel[i%len(sizeSel)]%2 == 0 {
					size = 4096
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
	l := NewLink(k, testProp)
	mem := memsim.New(4096)
	reg := mem.Alloc("data", 64, 8)
	mem.Write(reg.Base, []byte{0xAA, 0xBB, 0xCC, 0xDD})
	NewRootComplex(k, mem, l, testRCToMem)
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
	l := NewLink(k, testProp)
	mem := memsim.New(4096)
	buf := mem.Alloc("buf", 64, 8)
	rc := NewRootComplex(k, mem, l, units.Nanoseconds(240.96))
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
	l := NewLink(k, testProp)
	mem := memsim.New(4096)
	rc := NewRootComplex(k, mem, l, testRCToMem)
	defer func() {
		if recover() == nil {
			t.Error("MMIO write to DRAM address did not panic")
		}
	}()
	rc.MMIOWrite(0x1000, []byte{1})
}

func TestMMIOWriteCopiesData(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, testProp)
	mem := memsim.New(4096)
	rc := NewRootComplex(k, mem, l, testRCToMem)
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
	if RCToMem(testRCToMem, 8) != testRCToMem || RCToMem(testRCToMem, 64) != testRCToMem {
		t.Error("a write of up to one cache line should cost the base")
	}
	// 64 bytes past the cache line at 50 ps/B.
	if got := RCToMem(testRCToMem, 128); got != testRCToMem+units.Nanoseconds(3.2) {
		t.Errorf("RCToMem(128) = %v, want the base plus 3.20ns", got)
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
	if tlp.WireBytes() != 88 {
		t.Errorf("WireBytes = %d", tlp.WireBytes())
	}
	rd := &TLP{Type: MRd, ReadLen: 64}
	if rd.WireBytes() != 24 {
		t.Errorf("MRd WireBytes = %d", rd.WireBytes())
	}
}

func TestTLPPoolReuse(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, testProp)
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
	l := NewLink(k, testProp)
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
	l := NewLink(k, testProp)
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
	k, l, _, ep := testLink()
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

// releaser is an endpoint that releases every TLP delivered to it, as the
// NIC and the Root Complex do.
type releaser struct{}

func (releaser) RxTLP(t *TLP) { t.Release() }

// TestPendEpisodeAllocatesNothing: each episode sends two 4 KiB writes
// upstream, so the second parks in the pend queue until the first's
// UpdateFC returns the posted data credits. A link that goes through such
// episodes over and over reuses the pend queue's array: an episode
// allocates nothing.
func TestPendEpisodeAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, testProp)
	l.SetRCSide(releaser{})
	l.SetEndpointSide(releaser{})
	episode := func() {
		for i := 0; i < 2; i++ {
			tlp := l.NewTLP()
			tlp.Type = MWr
			tlp.GrowData(4096)
			l.SendUp(tlp)
		}
		k.Run()
	}
	episode()
	if _, up := l.Blocked(); up != 1 {
		t.Fatalf("%d upstream writes blocked in an episode, want 1", up)
	}
	if allocs := testing.AllocsPerRun(100, episode); allocs != 0 {
		t.Errorf("%.2f allocations per pend episode, want 0", allocs)
	}
	if tlps, dllps := l.InUsePackets(); tlps != 0 || dllps != 0 {
		t.Errorf("%d TLPs and %d DLLPs still in use after the episodes", tlps, dllps)
	}
}
