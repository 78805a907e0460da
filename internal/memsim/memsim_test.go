package memsim

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	m := New(1 << 20)
	a := m.Alloc("a", 10, 64)
	b := m.Alloc("b", 100, 64)
	if a.Base%64 != 0 || b.Base%64 != 0 {
		t.Errorf("misaligned: %#x %#x", a.Base, b.Base)
	}
	if b.Base < a.End() {
		t.Error("regions overlap")
	}
	if len(m.Regions()) != 2 {
		t.Error("regions not tracked")
	}
}

func TestAllocBadAlignmentPanics(t *testing.T) {
	m := New(1024)
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two alignment did not panic")
		}
	}()
	m.Alloc("x", 8, 3)
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New(128)
	defer func() {
		if recover() == nil {
			t.Error("exhausted alloc did not panic")
		}
	}()
	m.Alloc("big", 256, 8)
}

func TestWriteRead(t *testing.T) {
	m := New(1024)
	r := m.Alloc("buf", 64, 8)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.Write(r.Base, data)
	if got := m.Read(r.Base, 8); !bytes.Equal(got, data) {
		t.Errorf("read back %v", got)
	}
	if m.Writes() != 1 {
		t.Errorf("write count = %d", m.Writes())
	}
	var dst [4]byte
	m.ReadInto(r.Base+2, dst[:])
	if !bytes.Equal(dst[:], []byte{3, 4, 5, 6}) {
		t.Errorf("ReadInto = %v", dst)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(16)
	for _, f := range []func(){
		func() { m.Write(10, make([]byte, 8)) },
		func() { m.Read(0, 17) },
		func() { m.ReadInto(16, make([]byte, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 100, Size: 64}
	if !r.Contains(100, 64) || !r.Contains(163, 1) {
		t.Error("Contains false negative")
	}
	if r.Contains(99, 1) || r.Contains(164, 1) || r.Contains(160, 8) {
		t.Error("Contains false positive")
	}
}

func TestQuickWriteReadRoundTrip(t *testing.T) {
	m := New(1 << 16)
	r := m.Alloc("q", 4096, 64)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 || len(data) > 256 {
			return true
		}
		o := uint64(off) % (4096 - 256)
		m.Write(r.Base+o, data)
		return bytes.Equal(m.Read(r.Base+o, len(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAllocDisjoint(t *testing.T) {
	// Property: sequential allocations never overlap.
	f := func(sizes []uint8) bool {
		m := New(1 << 20)
		var regs []Region
		for i, s := range sizes {
			if i >= 32 {
				break
			}
			regs = append(regs, m.Alloc("r", uint64(s)+1, 8))
		}
		for i := 1; i < len(regs); i++ {
			if regs[i].Base < regs[i-1].End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLazyBackingReadsZeros(t *testing.T) {
	// The backing store is lazy: untouched addresses anywhere in the
	// modelled DRAM read as zeros, without ever allocating the full size.
	m := New(1 << 30)
	if got := m.Read((1<<30)-64, 64); !bytes.Equal(got, make([]byte, 64)) {
		t.Errorf("untouched high memory = %v, want zeros", got)
	}
	// ReadInto must overwrite stale destination bytes with those zeros.
	dst := []byte{1, 2, 3, 4}
	m.ReadInto((1<<29)+8, dst)
	if !bytes.Equal(dst, make([]byte, 4)) {
		t.Errorf("ReadInto left stale bytes: %v", dst)
	}
}

func TestLazyBackingGrowsAcrossBoundary(t *testing.T) {
	m := New(1 << 20)
	// A write far above address zero commits fully and reads back, with
	// untouched neighbours still zero.
	data := bytes.Repeat([]byte{0xab}, 100)
	m.Write(99_000, data)
	if got := m.Read(99_000, 100); !bytes.Equal(got, data) {
		t.Errorf("read-back mismatch after growth")
	}
	if got := m.Read(98_000, 64); !bytes.Equal(got, make([]byte, 64)) {
		t.Errorf("neighbour below the write not zero: %v", got)
	}
	if got := m.Read(100_000, 64); !bytes.Equal(got, make([]byte, 64)) {
		t.Errorf("neighbour above the write not zero: %v", got)
	}
	if m.Size() != 1<<20 {
		t.Errorf("Size changed to %d", m.Size())
	}
}

func TestWriteAtEndOfMemory(t *testing.T) {
	m := New(4096)
	m.Write(4092, []byte{1, 2, 3, 4})
	if !bytes.Equal(m.Read(4092, 4), []byte{1, 2, 3, 4}) {
		t.Error("write at the last addresses lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range write not caught")
		}
	}()
	m.Write(4094, []byte{1, 2, 3, 4})
}

// TestOverflowingAddressesPanic pins the address-arithmetic overflow fix:
// addr+n used to wrap past zero for near-MaxUint64 addresses and sail
// through the bounds check, reading or writing wildly out of range.
func TestOverflowingAddressesPanic(t *testing.T) {
	m := New(1 << 20)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"write", func() { m.Write(math.MaxUint64-2, []byte{1, 2, 3, 4}) }},
		{"read", func() { m.Read(math.MaxUint64-2, 4) }},
		{"readinto", func() { m.ReadInto(math.MaxUint64-2, make([]byte, 4)) }},
		{"write-at-size", func() { m.Write(1<<20, []byte{1}) }},
		{"read-max-addr", func() { m.Read(math.MaxUint64, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: overflowing access did not panic", tc.name)
				}
			}()
			tc.op()
		}()
	}
	// A zero-length access at the very end of memory is legal.
	m.Write(1<<20, nil)
	if got := m.Read(1<<20, 0); len(got) != 0 {
		t.Errorf("zero-length read returned %v", got)
	}
}

// TestRegionContainsOverflow pins the same wrap in Region.Contains:
// addr+n <= End() used to hold spuriously when addr+n wrapped.
func TestRegionContainsOverflow(t *testing.T) {
	r := Region{Name: "r", Base: 64, Size: 128}
	if r.Contains(math.MaxUint64-2, 8) {
		t.Error("Contains accepted a wrapping range")
	}
	if r.Contains(190, 8) {
		t.Error("Contains accepted a range past End")
	}
	if r.Contains(0, -1) {
		t.Error("Contains accepted a negative length")
	}
	if !r.Contains(64, 128) {
		t.Error("Contains rejected the exact region")
	}
	if !r.Contains(192, 0) {
		t.Error("Contains rejected a zero-length range at End")
	}
	// A region spanning the top of the address space must not let End()'s
	// own wraparound leak through Contains.
	top := Region{Name: "top", Base: math.MaxUint64 - 63, Size: 64}
	if !top.Contains(math.MaxUint64-63, 64) {
		t.Error("Contains rejected the exact top-of-memory region")
	}
	if top.Contains(math.MaxUint64-63, 65) {
		t.Error("Contains accepted one byte past the top region")
	}
}

// TestAllocOverflowPanics pins the bump-allocator wrap: base+n overflowing
// used to pass the out-of-memory check.
func TestAllocOverflowPanics(t *testing.T) {
	m := New(1 << 20)
	defer func() {
		if recover() == nil {
			t.Error("overflowing Alloc did not panic")
		}
	}()
	m.Alloc("huge", math.MaxUint64-16, 64)
}

// TestPageBoundaries pins the page table at its edges, on a memory whose
// size (10000 bytes: two pages and part of a third) is not page-aligned.
// A write straddling a page boundary and a write ending on the last byte of
// memory read back intact, the unwritten rest of a touched page reads as
// zeros, and only touched pages become resident. Reading untouched pages
// and a zero-length write at Size() allocate nothing at all.
func TestPageBoundaries(t *testing.T) {
	m := New(10000)
	straddle := bytes.Repeat([]byte{0x5a}, 12)
	m.Write(pageSize-6, straddle)
	if got := m.Read(pageSize-6, 12); !bytes.Equal(got, straddle) {
		t.Errorf("page-straddling write read back %v", got)
	}
	if got := m.Resident(); got != 2*pageSize {
		t.Errorf("resident %d bytes after a two-page write, want %d", got, 2*pageSize)
	}
	top := []byte{0xde, 0xad, 0xbe, 0xef}
	m.Write(9996, top)
	if got := m.Read(9996, 4); !bytes.Equal(got, top) {
		t.Errorf("write ending on the last byte read back %v", got)
	}
	if got := m.Resident(); got != 3*pageSize {
		t.Errorf("resident %d bytes after touching the partial top page, want %d", got, 3*pageSize)
	}
	for _, c := range []struct {
		r    Region
		want uint64
	}{
		{Region{Base: 0, Size: pageSize}, pageSize},
		{Region{Base: pageSize - 1, Size: 2}, 2 * pageSize},
		{Region{Base: pageSize, Size: pageSize - 6}, pageSize},
		{Region{Base: 2 * pageSize, Size: 10000 - 2*pageSize}, pageSize},
		{Region{Base: 100, Size: 0}, 0},
	} {
		if got := m.ResidentIn(c.r); got != c.want {
			t.Errorf("ResidentIn(%+v) = %d, want %d", c.r, got, c.want)
		}
	}
	want := make([]byte, 10000)
	copy(want[pageSize-6:], straddle)
	copy(want[9996:], top)
	if got := m.Read(0, 10000); !bytes.Equal(got, want) {
		t.Error("a read across all three pages differs from the two writes over zeros")
	}

	idle := New(1 << 20)
	dst := make([]byte, 3*pageSize)
	if n := testing.AllocsPerRun(100, func() { idle.ReadInto(pageSize/2, dst) }); n != 0 {
		t.Errorf("ReadInto over untouched pages allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { idle.Write(1<<20, nil) }); n != 0 {
		t.Errorf("zero-length Write at Size() allocates %v times per call", n)
	}
	if got := idle.Resident(); got != 0 {
		t.Errorf("reads and a zero-length write left %d bytes resident", got)
	}
}

// fuzzSize is FuzzMemory's memory size: four pages and part of a fifth, so
// the top of memory is not page-aligned.
const fuzzSize = 4*pageSize + 100

// fuzzAnchors are the addresses fuzzed accesses start near: every page
// boundary inside the memory, and its size.
var fuzzAnchors = [...]uint64{0, pageSize, 2 * pageSize, 3 * pageSize, 4 * pageSize, fuzzSize}

// fuzzOp encodes one FuzzMemory call: kind picks Write, ReadInto or Read,
// the address is fuzzAnchors[anchor]+delta, and n is the length.
func fuzzOp(kind, anchor byte, delta int8, n uint16) []byte {
	return []byte{kind, anchor, byte(delta), byte(n), byte(n >> 8)}
}

// panics reports whether f panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// FuzzMemory checks the paged memory against a flat reference: one dense
// byte slice as large as the memory. Every call must read the same bytes
// as the reference, and panic exactly when slicing the reference panics.
// After every call only the pages written so far are resident.
func FuzzMemory(f *testing.F) {
	f.Add(fuzzOp(0, 1, -10, 100))                            // a page-straddling write
	f.Add(fuzzOp(0, 5, -16, 16))                             // a write ending on the last byte of memory
	f.Add(append(fuzzOp(0, 5, 0, 0), fuzzOp(1, 5, 0, 0)...)) // a zero-length write, then read, at Size()
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New(fuzzSize)
		ref := make([]byte, fuzzSize)
		touched := map[uint64]bool{}
		var writes uint64
		for step := 0; len(ops) >= 5 && step < 64; step++ {
			kind := ops[0] % 3
			addr := fuzzAnchors[int(ops[1])%len(fuzzAnchors)] + uint64(int64(int8(ops[2])))
			n := int(binary.LittleEndian.Uint16(ops[3:5])) % (2*pageSize + 1)
			ops = ops[5:]
			end := addr + uint64(n)
			var got, want []byte
			var gotPanic, wantPanic bool
			switch kind {
			case 0:
				data := make([]byte, n)
				for i := range data {
					data[i] = byte((step+i)%255 + 1)
				}
				gotPanic = panics(func() { m.Write(addr, data) })
				wantPanic = panics(func() { copy(ref[addr:end], data) })
				if !wantPanic {
					writes++
					for p := addr >> pageShift; n > 0 && p <= (end-1)>>pageShift; p++ {
						touched[p] = true
					}
				}
			case 1:
				got = bytes.Repeat([]byte{0xa5}, n)
				gotPanic = panics(func() { m.ReadInto(addr, got) })
				wantPanic = panics(func() { want = ref[addr:end] })
			case 2:
				gotPanic = panics(func() { got = m.Read(addr, n) })
				wantPanic = panics(func() { want = ref[addr:end] })
			}
			if gotPanic != wantPanic {
				t.Fatalf("step %d: op %d at %#x len %d: panicked %v, reference panicked %v", step, kind, addr, n, gotPanic, wantPanic)
			}
			if kind != 0 && !gotPanic && !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("step %d: op %d at %#x len %d returned %d bytes, first differing from the reference at offset %d",
					step, kind, addr, n, len(got), i)
			}
			if m.Writes() != writes {
				t.Fatalf("step %d: %d writes counted, want %d", step, m.Writes(), writes)
			}
			if got, want := m.Resident(), uint64(len(touched))*pageSize; got != want {
				t.Fatalf("step %d: resident %d bytes, want %d for %d written pages", step, got, want, len(touched))
			}
		}
		if !bytes.Equal(m.Read(0, fuzzSize), ref) {
			t.Fatal("memory contents differ from the reference")
		}
	})
}

// TestWatchFiresOnOverlappingWrites: a watch runs after every write that
// overlaps its range, sees the committed bytes, ignores writes beside the
// range and empty writes, and stays armed until Unwatch.
func TestWatchFiresOnOverlappingWrites(t *testing.T) {
	m := New(1 << 16)
	m.Alloc("before", 64, 64)
	r := m.Alloc("slot", 64, 64)
	m.Alloc("after", 64, 64)
	var fired int
	var seen byte
	owner := &fired
	m.Watch(r.Base, int(r.Size), func(a any) {
		if a != owner {
			t.Errorf("watch got arg %v", a)
		}
		fired++
		seen = m.Read(r.End()-1, 1)[0]
	}, owner)
	if m.Watches() != 1 {
		t.Fatalf("Watches = %d after arming one", m.Watches())
	}
	m.Write(r.Base-8, make([]byte, 8)) // ends where the range starts
	m.Write(r.End(), []byte{1})        // starts where it ends
	m.Write(r.Base+8, nil)
	if fired != 0 {
		t.Fatalf("watch fired %d times on writes outside its range", fired)
	}
	m.Write(r.End()-1, []byte{0xAB, 0xCD}) // straddles the end
	if fired != 1 || seen != 0xAB {
		t.Fatalf("after an overlapping write: fired %d, saw %#x; want 1 and the new byte", fired, seen)
	}
	m.Write(r.Base, []byte{1})
	if fired != 2 {
		t.Fatalf("watch fired %d times, want it armed until Unwatch", fired)
	}
	m.Unwatch(owner)
	m.Write(r.Base, []byte{1})
	if fired != 2 || m.Watches() != 0 {
		t.Errorf("after Unwatch: fired %d, %d watches armed", fired, m.Watches())
	}
}

// TestUnwatchFromCallback: Unwatch disarms exactly the watches armed with
// its arg, also from inside a firing callback, and leaves the others.
func TestUnwatchFromCallback(t *testing.T) {
	m := New(1 << 16)
	a, b := &struct{ n int }{}, &struct{ n int }{}
	for i := uint64(0); i < 3; i++ {
		m.Watch(i*64, 64, func(any) { a.n++; m.Unwatch(a) }, a)
		m.Watch(1024+i*64, 64, func(any) { b.n++ }, b)
	}
	m.Write(128, []byte{1}) // a's third slot
	if a.n != 1 || m.Watches() != 3 {
		t.Fatalf("a fired %d times, %d watches armed; want 1 and b's 3", a.n, m.Watches())
	}
	m.Write(0, []byte{1})
	m.Write(1024+64, []byte{1})
	if a.n != 1 || b.n != 1 {
		t.Errorf("a fired %d, b %d; want a disarmed and b still armed", a.n, b.n)
	}
}
