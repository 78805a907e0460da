// Package memsim models the host memory system of a node.
//
// Memory is a flat byte-addressable space carved into named regions (queue
// rings, doorbell records, receive buffers). Because the simulation kernel
// serializes all activity on the virtual clock, write *timing* is owned by
// whoever performs the write (the Root Complex schedules its commit after the
// RC-to-MEM latency; CPU stores commit at the executing task's current time),
// and a read simply observes the bytes committed so far — which is exactly
// the memory-consistency behaviour a single coherent host memory provides.
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

// Memory is one node's DRAM plus its allocation bookkeeping.
//
// The backing store is lazy: a fresh Memory owns no buffer, and the buffer
// grows geometrically as writes land. Addresses past the backing read as
// zeros, exactly like untouched DRAM. Regions are bump-allocated from zero,
// so the backing stays a tiny fraction of the modelled DRAM size — which is
// what lets the measurement campaign build hundreds of fresh systems
// without cycling gigabytes through the allocator.
type Memory struct {
	size    uint64
	buf     []byte // lazily grown; [len(buf), size) reads as zeros
	next    uint64
	regions []Region
	// writes counts committed store operations, a cheap invariant hook for
	// tests.
	writes uint64
}

// New creates a memory of the given size in bytes.
func New(size uint64) *Memory {
	return &Memory{size: size}
}

// Size reports the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Writes reports the number of committed store operations.
func (m *Memory) Writes() uint64 { return m.writes }

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

// ensure grows the backing store to cover [0, end). The caller must have
// bounds-checked end (end <= m.size): ensure doubles geometrically from 4
// KiB and clamps the growth to the memory size, which can only stay >= end
// — never clamp below a legal request — because end itself is bounded by
// the size. The explicit guard converts any future violation of that
// contract into a panic instead of a silent short buffer.
func (m *Memory) ensure(end uint64) {
	if end <= uint64(len(m.buf)) {
		return
	}
	grown := uint64(4096)
	for grown < end {
		grown *= 2
	}
	if grown > m.size {
		grown = m.size
	}
	if grown < end {
		panic(fmt.Sprintf("memsim: ensure(%d) beyond memory size %d (missing bounds check?)", end, m.size))
	}
	nb := make([]byte, grown)
	copy(nb, m.buf)
	m.buf = nb
}

// readAt copies the bytes at addr into dst, treating addresses past the
// backing store as zeros.
func (m *Memory) readAt(addr uint64, dst []byte) {
	var n int
	if addr < uint64(len(m.buf)) {
		n = copy(dst, m.buf[addr:])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// Write commits data at addr immediately (at the caller's current virtual
// time).
func (m *Memory) Write(addr uint64, data []byte) {
	m.check(addr, len(data), "write")
	m.ensure(addr + uint64(len(data)))
	copy(m.buf[addr:], data)
	m.writes++
}

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
