// Package memsim models the host memory system of a node.
//
// Memory is a flat byte-addressable space carved into named regions (queue
// rings, doorbell records, receive buffers). Because the simulation kernel
// serializes all activity on the virtual clock, write *timing* is owned by
// whoever performs the write (the Root Complex schedules its commit after the
// RC-to-MEM latency; CPU stores commit at the executing task's current time),
// and a read simply observes the bytes committed so far — which is exactly
// the memory-consistency behaviour a single coherent host memory provides.
//
// The host memory a Memory costs follows the bytes a run writes, not the
// span its regions cover: the backing is a table of 4 KiB pages, each
// allocated on its first write. Resident and ResidentIn report it. A
// region's owner keeps that cost down by reusing the addresses it wrote
// last: the uct endpoints hand out their bcopy staging slots from a LIFO
// free list, so an endpoint backs as many slots as it ever had gather
// sends in flight, not every slot of its send queue.
//
// # Write watches
//
// Watch arms a callback on an address range: every Write that overlaps it
// runs the callback after the bytes are committed, at the writer's virtual
// time, until Unwatch disarms it. This is how a waiting software thread
// learns that a device wrote its completion queue without polling for it:
// the uct poll loops watch each endpoint's next completion slot while they
// are parked (internal/uct), and tests watch a buffer to time an inbound
// DMA commit. A write runs the first watch it overlaps and no other, so
// watched ranges must be disjoint; the callback may arm and disarm
// watches. With no watch armed a write pays one length check.
package memsim

import (
	"fmt"
)

// Region is a named allocation inside a Memory.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// End reports the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether [addr, addr+n) lies inside the region. The
// comparison is phrased subtractively: addr+uint64(n) would wrap for
// near-MaxUint64 addresses and wrongly report containment.
func (r Region) Contains(addr uint64, n int) bool {
	if n < 0 || addr < r.Base || addr-r.Base > r.Size {
		return false
	}
	return uint64(n) <= r.Size-(addr-r.Base)
}

// The backing is split into 4 KiB pages.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page is one 4 KiB unit of backing.
type page = [pageSize]byte

// Memory is one node's DRAM plus its allocation bookkeeping.
//
// The backing store is sparse: pages[addr>>12] backs the 4 KiB page that
// holds addr. A fresh Memory owns no table and no pages. A write allocates
// each page it touches for the first time and grows the table only as far
// as the highest page written. A nil page, or an index past the table,
// reads as zeros, exactly like untouched DRAM. So a node costs the host the
// pages its run writes, not the span of its regions — which is what lets
// the measurement campaign build hundreds of fresh systems, and a fat-tree
// run hand out thousands of 4 KiB buffer slots, without cycling that span
// through the allocator.
type Memory struct {
	size    uint64
	pages   []*page // nil entries and indexes past len(pages) read as zeros
	next    uint64
	regions []Region
	// writes counts committed store operations, a cheap invariant hook for
	// tests.
	writes uint64
	// watches are the armed write watches (see Watch), in arming order.
	watches []watch
}

// watch is one armed write watch: fn(arg) runs after each Write that
// overlaps [lo, hi).
type watch struct {
	lo, hi uint64
	fn     func(any)
	arg    any
}

// New creates a memory of the given size in bytes.
func New(size uint64) *Memory {
	return &Memory{size: size}
}

// Size reports the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Writes reports the number of committed store operations.
func (m *Memory) Writes() uint64 { return m.writes }

// Resident reports the host bytes backing the memory: 4 KiB for every page
// a write has touched.
func (m *Memory) Resident() uint64 { return m.ResidentIn(Region{Size: m.size}) }

// ResidentIn reports the host bytes backing region r: 4 KiB for every page
// that overlaps r and that a write has touched.
func (m *Memory) ResidentIn(r Region) uint64 {
	if r.Size == 0 {
		return 0
	}
	var n uint64
	for i := r.Base >> pageShift; i <= (r.End()-1)>>pageShift && i < uint64(len(m.pages)); i++ {
		if m.pages[i] != nil {
			n += pageSize
		}
	}
	return n
}

// Alloc carves out a region of n bytes aligned to align (a power of two).
func (m *Memory) Alloc(name string, n, align uint64) Region {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("memsim: bad alignment %d", align))
	}
	base := (m.next + align - 1) &^ (align - 1)
	// Subtractive bounds check: base+n wraps for huge requests.
	if base > m.size || n > m.size-base {
		panic(fmt.Sprintf("memsim: out of memory allocating %q (%d bytes)", name, n))
	}
	r := Region{Name: name, Base: base, Size: n}
	m.next = base + n
	m.regions = append(m.regions, r)
	return r
}

// Regions lists allocations in order.
func (m *Memory) Regions() []Region {
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

// check panics unless [addr, addr+n) lies inside the memory. Phrased
// subtractively: addr+uint64(n) would wrap for near-MaxUint64 addresses and
// wrongly pass the bounds check.
func (m *Memory) check(addr uint64, n int, op string) {
	if n < 0 || addr > m.size || uint64(n) > m.size-addr {
		panic(fmt.Sprintf("memsim: %s out of range addr=%#x len=%d size=%d", op, addr, n, m.size))
	}
}

// pageAt returns page i, allocating it, and growing the table to reach it,
// on first use. Callers pass only pages of bounds-checked bytes, so the
// table never outgrows the memory size.
func (m *Memory) pageAt(i uint64) *page {
	if i >= uint64(len(m.pages)) {
		m.pages = append(m.pages, make([]*page, i+1-uint64(len(m.pages)))...)
	}
	p := m.pages[i]
	if p == nil {
		p = new(page)
		m.pages[i] = p
	}
	return p
}

// readAt copies the bytes at addr into dst one page at a time, treating
// unwritten pages as zeros.
func (m *Memory) readAt(addr uint64, dst []byte) {
	for len(dst) > 0 {
		i, off := addr>>pageShift, addr&pageMask
		var n int
		if i < uint64(len(m.pages)) && m.pages[i] != nil {
			n = copy(dst, m.pages[i][off:])
		} else {
			n = min(len(dst), int(pageSize-off))
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write commits data at addr immediately (at the caller's current virtual
// time), then runs the watch the write overlaps, if any.
func (m *Memory) Write(addr uint64, data []byte) {
	m.check(addr, len(data), "write")
	lo, hi := addr, addr+uint64(len(data))
	for len(data) > 0 {
		n := copy(m.pageAt(addr >> pageShift)[addr&pageMask:], data)
		data = data[n:]
		addr += uint64(n)
	}
	m.writes++
	if lo == hi {
		return
	}
	for _, w := range m.watches {
		if lo < w.hi && w.lo < hi {
			// The callback may rearrange the watches: stop scanning.
			w.fn(w.arg)
			return
		}
	}
}

// Watch arms a write watch: after every Write that overlaps [addr, addr+n),
// fn(arg) runs, until Unwatch(arg). Ranges must not overlap other armed
// watches. arg identifies the watch for Unwatch and should be a pointer;
// fn is bound once by the caller, so arming allocates nothing once the
// watch table has grown.
func (m *Memory) Watch(addr uint64, n int, fn func(any), arg any) {
	m.check(addr, n, "watch")
	m.watches = append(m.watches, watch{lo: addr, hi: addr + uint64(n), fn: fn, arg: arg})
}

// Unwatch disarms every watch armed with arg.
func (m *Memory) Unwatch(arg any) {
	kept := m.watches[:0]
	for _, w := range m.watches {
		if w.arg != arg {
			kept = append(kept, w)
		}
	}
	clear(m.watches[len(kept):])
	m.watches = kept
}

// Watches reports the number of armed write watches.
func (m *Memory) Watches() int { return len(m.watches) }

// Read copies n bytes at addr into a fresh slice.
func (m *Memory) Read(addr uint64, n int) []byte {
	m.check(addr, n, "read")
	out := make([]byte, n)
	m.readAt(addr, out)
	return out
}

// ReadInto copies len(dst) bytes at addr into dst, avoiding allocation on hot
// polling paths.
func (m *Memory) ReadInto(addr uint64, dst []byte) {
	m.check(addr, len(dst), "read")
	m.readAt(addr, dst)
}
