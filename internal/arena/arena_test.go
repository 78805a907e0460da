package arena

import "testing"

type thing struct {
	v   int
	buf []byte
	Slot
}

func newThingArena() *Arena[thing] {
	return New(
		func(t *thing) *Slot { return &t.Slot },
		func(t *thing) {
			t.v = 0
			t.buf = t.buf[:0]
		})
}

func TestAllocResetAndReuse(t *testing.T) {
	a := newThingArena()
	x := a.Alloc()
	x.v = 7
	x.buf = append(x.buf, 1, 2, 3)
	x.Release()
	y := a.Alloc()
	if y != x {
		t.Error("released slot not reused")
	}
	if y.v != 0 || len(y.buf) != 0 {
		t.Errorf("recycled object not reset: %+v", y)
	}
	if cap(y.buf) < 3 {
		t.Error("reset dropped the reusable buffer capacity")
	}
}

func TestRefGenerationCheck(t *testing.T) {
	a := newThingArena()
	x := a.Alloc()
	ref := MakeRef(x, &x.Slot)
	if ref.Get() != x {
		t.Fatal("fresh ref does not resolve")
	}
	x.Release()
	if ref.Get() != nil {
		t.Error("stale ref resolved after release")
	}
	y := a.Alloc() // recycles x's slot under a new generation
	if ref.Get() != nil {
		t.Error("old-generation ref resolved against the recycled slot")
	}
	if MakeRef(y, &y.Slot).Get() != y {
		t.Error("recycled slot's new ref does not resolve")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	a := newThingArena()
	x := a.Alloc()
	x.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	x.Release()
}

func TestUnpooledObjectIsInert(t *testing.T) {
	x := &thing{v: 1}
	x.Release() // no-op
	if MakeRef(x, &x.Slot).Get() != nil {
		t.Error("unpooled ref should resolve to nil")
	}
}

func TestPointerStabilityAcrossGrowth(t *testing.T) {
	a := newThingArena()
	first := a.Alloc()
	first.v = 42
	// Force several chunk growths.
	for i := 0; i < Chunk*4; i++ {
		a.Alloc()
	}
	if first.v != 42 || a.get(0) != first {
		t.Error("slot pointer invalidated by arena growth")
	}
}

func TestAllocIsAllocFreeOnReuse(t *testing.T) {
	a := newThingArena()
	x := a.Alloc()
	x.Release()
	if allocs := testing.AllocsPerRun(200, func() {
		y := a.Alloc()
		y.Release()
	}); allocs != 0 {
		t.Errorf("steady-state alloc/release allocates %.2f per op, want 0", allocs)
	}
}

func TestInUse(t *testing.T) {
	a := newThingArena()
	if a.InUse() != 0 {
		t.Fatalf("fresh arena reports %d in use", a.InUse())
	}
	x, y := a.Alloc(), a.Alloc()
	if a.InUse() != 2 {
		t.Errorf("2 live slots, InUse() = %d", a.InUse())
	}
	x.Release()
	if a.InUse() != 1 {
		t.Errorf("1 live slot, InUse() = %d", a.InUse())
	}
	y.Release()
	if a.InUse() != 0 {
		t.Errorf("all released, InUse() = %d", a.InUse())
	}
	// Reuse keeps the count exact.
	a.Alloc()
	if a.InUse() != 1 {
		t.Errorf("after reuse, InUse() = %d", a.InUse())
	}
}

func TestOnReleaseHook(t *testing.T) {
	a := newThingArena()
	var seen []*thing
	a.SetOnRelease(func(x *thing) { seen = append(seen, x) })
	x := a.Alloc()
	x.v = 7
	if len(seen) != 0 {
		t.Fatal("hook ran before release")
	}
	x.Release()
	if len(seen) != 1 || seen[0] != x {
		t.Fatalf("hook saw %v, want the released object", seen)
	}
	if seen[0].v != 7 {
		t.Error("hook should observe the object's fields before reset")
	}
	// Unpooled objects never enter the arena, so the hook stays silent.
	(&thing{}).Release()
	if len(seen) != 1 {
		t.Error("hook ran for an unpooled object")
	}
}

// TestBufSharedUntilLastDrop checks the payload buffer's reference count:
// every holder reads the one copy, and the buffer returns to its pool only
// when the last holder drops it.
func TestBufSharedUntilLastDrop(t *testing.T) {
	p := NewBufPool()
	src := []byte{1, 2, 3}
	b := p.Fill(src)
	src[0] = 9
	if string(b.Bytes()) != "\x01\x02\x03" {
		t.Fatalf("Fill did not copy its source: %v", b.Bytes())
	}
	frame := b.Hold()
	tlp := frame.Hold()
	if &frame.Bytes()[0] != &b.Bytes()[0] || &tlp.Bytes()[0] != &b.Bytes()[0] {
		t.Error("holders do not share the one buffer")
	}
	b.Drop()
	frame.Drop()
	if p.InUse() != 1 || string(tlp.Bytes()) != "\x01\x02\x03" {
		t.Fatalf("buffer left the pool while a holder remained (InUse %d)", p.InUse())
	}
	tlp.Drop()
	if p.InUse() != 0 {
		t.Errorf("InUse %d after the last drop", p.InUse())
	}
	var zero Buf
	if zero.Bytes() != nil || zero.Hold() != zero {
		t.Error("the zero Buf is not the empty payload")
	}
	zero.Drop() // no-op
}

// TestBufStaleHandlePanics resolves a handle after its last drop: a
// use-after-release must fail loudly, never read the recycled buffer.
func TestBufStaleHandlePanics(t *testing.T) {
	p := NewBufPool()
	b := p.Fill([]byte{7})
	b.Drop()
	p.Fill([]byte{8}) // recycles the slot under a new generation
	for name, use := range map[string]func(){
		"Bytes": func() { b.Bytes() },
		"Hold":  func() { b.Hold() },
		"Drop":  func() { b.Drop() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a stale handle did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestBufPoolHighWaterAndWarmFill checks that a warm pool fills without
// allocating and that HighWater counts the most buffers held at once.
func TestBufPoolHighWaterAndWarmFill(t *testing.T) {
	p := NewBufPool()
	payload := make([]byte, 4096)
	a, b := p.Fill(payload), p.Fill(payload)
	a.Drop()
	b.Drop()
	if allocs := testing.AllocsPerRun(200, func() {
		x := p.Fill(payload)
		y := p.Fill(payload[:8])
		x.Hold().Drop()
		x.Drop()
		y.Drop()
	}); allocs != 0 {
		t.Errorf("warm fill allocates %.2f per op, want 0", allocs)
	}
	if p.HighWater() != 2 || p.InUse() != 0 {
		t.Errorf("HighWater %d, InUse %d; want 2, 0", p.HighWater(), p.InUse())
	}
}
