package pcie

import (
	"fmt"

	"breakband/internal/memsim"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// BARBase is the bus address at which the endpoint's device memory (doorbell
// registers, BlueFlame buffers) is mapped. Host DRAM occupies low addresses.
const BARBase uint64 = 0xD000_0000_0000

// IsBAR reports whether addr targets device memory.
func IsBAR(addr uint64) bool { return addr >= BARBase }

// The Root Complex's commit slope and DMA read time are constants. Only
// the commit latency of a short write varies, the base NewRootComplex
// takes (the paper's RC-to-MEM component, measured 240.96 ns for 8
// bytes).
const (
	// rcToMemBaseBytes is the write size the base latency covers: one
	// cache line.
	rcToMemBaseBytes = 64
	// rcToMemPerByte extends the commit past it at streaming DDR write
	// bandwidth: 50 ps/B, ~20 GB/s.
	rcToMemPerByte units.Time = 50
	// memReadLatency is the DRAM access time for servicing an MRd (DMA
	// read) request.
	memReadLatency = 150 * units.Nanosecond
)

// RCToMem reports the commit latency of an n-byte inbound write on a Root
// Complex whose one-cache-line commit takes base.
func RCToMem(base units.Time, n int) units.Time {
	return base + units.Time(max(n-rcToMemBaseBytes, 0))*rcToMemPerByte
}

// RootComplex connects the processor and memory to the PCIe fabric
// (paper §2). It turns CPU MMIO writes into downstream MWr TLPs, commits
// inbound DMA writes to host memory after the RC-to-MEM latency, and
// services inbound DMA reads from memory with CplD completions.
type RootComplex struct {
	k    *sim.Kernel
	mem  *memsim.Memory
	link *Link
	base units.Time // RCToMem's one-cache-line commit latency

	// Commits counts inbound MWr commits, a test hook. To observe a
	// commit's address and time, watch the memory (memsim.Memory.Watch).
	Commits uint64

	// Continuations, bound once so the per-message path schedules events
	// without allocating closures. Each carries the in-flight *TLP, which
	// the RC owns (and must release) from delivery until the deferred
	// work fires.
	commitFn func(any) // commit an inbound DMA write to memory
	mrdFn    func(any) // service an inbound DMA read from memory
}

// NewRootComplex builds an RC bound to a kernel, host memory and link,
// committing a write of up to one cache line rcToMemBase after it arrives.
// It registers itself as the link's RC-side receiver.
func NewRootComplex(k *sim.Kernel, mem *memsim.Memory, link *Link, rcToMemBase units.Time) *RootComplex {
	rc := &RootComplex{k: k, mem: mem, link: link, base: rcToMemBase}
	rc.commitFn = func(a any) {
		t := a.(*TLP)
		rc.mem.Write(t.Addr, t.Data)
		rc.Commits++
		t.Release()
	}
	rc.mrdFn = func(a any) {
		t := a.(*TLP)
		cpl := rc.link.NewTLP()
		cpl.Type = CplD
		cpl.Addr = t.Addr
		cpl.Tag = t.Tag
		rc.mem.ReadInto(t.Addr, cpl.GrowData(t.ReadLen))
		rc.link.SendDown(cpl)
		t.Release()
	}
	link.SetRCSide(rc)
	return rc
}

// MMIOWrite issues a posted write from the CPU to device memory. The data is
// copied (into the pooled TLP's reusable buffer), so callers may reuse their
// buffer. This is the hardware half of both the 8-byte DoorBell ring and the
// 64-byte PIO copy (paper §2 steps 1 and the PIO fast path).
func (rc *RootComplex) MMIOWrite(addr uint64, data []byte) {
	if !IsBAR(addr) {
		panic(fmt.Sprintf("pcie: MMIO write to non-BAR address %#x", addr))
	}
	tlp := rc.link.NewTLP()
	tlp.Type = MWr
	tlp.Addr = addr
	tlp.SetData(data)
	rc.link.SendDown(tlp)
}

// RxTLP handles upstream traffic from the endpoint. The RC owns the
// delivered TLP until the deferred commit/completion continuation fires and
// releases it.
func (rc *RootComplex) RxTLP(t *TLP) {
	switch t.Type {
	case MWr:
		// DMA write to host memory: visible to the CPU after the
		// RC-to-MEM latency.
		rc.k.AfterArg(RCToMem(rc.base, len(t.Data)), rc.commitFn, t)
	case MRd:
		// DMA read: fetch from memory, then complete downstream.
		rc.k.AfterArg(memReadLatency, rc.mrdFn, t)
	case CplD:
		panic("pcie: RC received unexpected CplD (no outstanding host reads are modelled)")
	}
}
