package pcie_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"breakband/internal/pcie"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// fcTap makes every DLLP a real event and notes when the last UpdateFC
// arrived. It sits just before the endpoint, so it sees a downstream
// UpdateFC as it arrives and an upstream one as it leaves, one flight
// before it arrives.
type fcTap struct{ lastFC units.Time }

func (*fcTap) ObserveTLP(units.Time, pcie.Dir, *pcie.TLP) {}

func (f *fcTap) ObserveDLLP(at units.Time, dir pcie.Dir, d *pcie.DLLP) {
	if d.Type != pcie.UpdateFC {
		return
	}
	if dir == pcie.Up {
		at += fuzzProp
	}
	f.lastFC = max(f.lastFC, at)
}

// delivery is a TLP as a receiver saw it.
type delivery struct {
	at   units.Time
	typ  pcie.TLPType
	addr uint64
}

// rig is a bare link whose Root Complex side answers each MRd with a CplD
// after a fixed DRAM time, and whose receivers log and release what they
// get.
type rig struct {
	k        *sim.Kernel
	l        *pcie.Link
	down, up []delivery
	issued   []units.Time
}

// fuzzProp is the rig link's one-way propagation; rigRead is its RC's
// answer time for an MRd.
const (
	fuzzProp = 134 * units.Nanosecond
	rigRead  = 150 * units.Nanosecond
)

type rigSide struct {
	r  *rig
	rc bool
}

func (s rigSide) RxTLP(t *pcie.TLP) {
	r := s.r
	d := delivery{at: r.k.Now(), typ: t.Type, addr: t.Addr}
	if !s.rc {
		r.down = append(r.down, d)
		t.Release()
		return
	}
	r.up = append(r.up, d)
	if t.Type == pcie.MRd {
		addr, n := t.Addr, t.ReadLen
		r.k.After(rigRead, func() {
			cpl := r.l.NewTLP()
			cpl.Type = pcie.CplD
			cpl.Addr = addr
			cpl.GrowData(n)
			r.l.SendDown(cpl)
		})
	}
	t.Release()
}

// linkRun is what one run of a fuzzed schedule leaves behind.
type linkRun struct {
	down, up             []delivery
	issued               []units.Time
	blockedDn, blockedUp uint64
	pendDn, pendUp       int
	busyDn, busyUp       units.Time
	end                  units.Time
	fired                uint64
	tlps, dllps          int
	// allReal is, on a tapped run, the end clock of every event an
	// untapped link had before it reserved any: the last op, the last ACK
	// send (a delivery plus AckDelay) and the last UpdateFC arrival. A
	// tapped run itself ends later when an ACK arrives last.
	allReal units.Time
}

// linkOp is one op of a link schedule: at its instant, a downstream MWr
// (the CPU's MMIO write), an upstream MWr (a DMA write) or an upstream MRd
// (a DMA read, which the RC answers with a CplD) of size bytes, or a
// PauseUp or ResumeUp.
type linkOp struct {
	at   units.Time
	kind int
	size int
}

// The linkOp kinds.
const (
	opDownMWr = iota
	opUpMWr
	opUpMRd
	opPause
	opResume
	opKinds
)

// fuzzSizes are the write and read sizes a fuzzed schedule picks from.
var fuzzSizes = [3]int{8, 64, 4096}

// decodeOps reads a schedule from fuzzer bytes. Each op takes two bytes:
// the first picks the op and its size, the second how long after the
// previous op it starts, in 0.5 ns steps, so ops can share an instant.
func decodeOps(data []byte) []linkOp {
	var ops []linkOp
	var at units.Time
	for i := 0; i+1 < len(data) && i < 512; i += 2 {
		at += units.Time(data[i+1]) * 500
		ops = append(ops, linkOp{at: at, kind: int(data[i]) % opKinds, size: fuzzSizes[data[i]/opKinds%3]})
	}
	return ops
}

// runOps plays ops on a bare link, tapped or not, and ends with a
// ResumeUp 1 ns after the last op, so every send drains.
func runOps(ops []linkOp, tapped bool) linkRun {
	k := sim.NewKernel()
	k.SetEventLimit(1 << 20)
	r := &rig{k: k, l: pcie.NewLink(k, fuzzProp)}
	r.l.SetRCSide(rigSide{r: r, rc: true})
	r.l.SetEndpointSide(rigSide{r: r})
	r.l.SetOnUpIssued(func(*pcie.TLP) { r.issued = append(r.issued, k.Now()) })
	tap := &fcTap{}
	if tapped {
		r.l.SetTap(tap)
	}
	var at units.Time
	for i, op := range ops {
		at = max(at, op.at)
		addr := uint64(i)
		k.At(op.at, func() {
			switch op.kind {
			case opDownMWr, opUpMWr:
				t := r.l.NewTLP()
				t.Type = pcie.MWr
				t.Addr = addr
				t.GrowData(op.size)
				if op.kind == opDownMWr {
					r.l.SendDown(t)
				} else {
					r.l.SendUp(t)
				}
			case opUpMRd:
				t := r.l.NewTLP()
				t.Type = pcie.MRd
				t.Addr = addr
				t.ReadLen = op.size
				r.l.SendUp(t)
			case opPause:
				r.l.PauseUp()
			case opResume:
				r.l.ResumeUp()
			}
		})
	}
	at += units.Nanosecond
	k.At(at, r.l.ResumeUp)
	k.Run()
	run := linkRun{down: r.down, up: r.up, issued: r.issued, end: k.Now(), fired: k.Fired(), allReal: max(at, tap.lastFC)}
	for _, d := range slices.Concat(r.down, r.up) {
		run.allReal = max(run.allReal, d.at+pcie.AckDelay)
	}
	run.blockedDn, run.blockedUp = r.l.Blocked()
	run.pendDn, run.pendUp = r.l.MaxPend()
	run.busyDn, run.busyUp = r.l.BusyUntil()
	run.tlps, run.dllps = r.l.InUsePackets()
	return run
}

// FuzzUntappedLink: on any schedule of writes, reads and host pauses, an
// untapped link, which sends a TLP's DLLPs from one event and reserves the
// DLLP work nothing reads yet, delivers and issues every TLP at the
// instants a tapped link does, where every DLLP is a real event, with the
// same stalls and serializer schedule and no more events. Its run ends
// where its real events would have ended it. Both drain their packet
// pools.
func FuzzUntappedLink(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 1, 0, 11, 0, 11, 0, 0, 3, 6, 40})                // 4 KiB DMA writes pend on data credits
	f.Add([]byte{3, 0, 1, 10, 11, 2, 2, 4, 12, 0, 4, 200, 1, 1, 0, 0})        // writes and reads inside a host pause
	f.Add(append(bytes.Repeat([]byte{2, 0}, 18), 1, 0, 2, 0))                 // reads run out of non-posted credits
	f.Add([]byte{0, 0, 10, 0, 5, 1, 0, 0, 15, 0, 1, 0, 12, 3, 0, 255, 11, 1}) // MMIO writes against completions
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		sameRuns(t, runOps(ops, false), runOps(ops, true))
	})
}

// sameRuns fails t unless the untapped run off matches the tapped run on.
func sameRuns(t *testing.T, off, on linkRun) {
	t.Helper()
	for _, r := range []struct {
		name string
		run  linkRun
	}{{"untapped", off}, {"tapped", on}} {
		if r.run.tlps != 0 || r.run.dllps != 0 {
			t.Fatalf("%s link left %d TLPs and %d DLLPs in use", r.name, r.run.tlps, r.run.dllps)
		}
	}
	if !slices.Equal(off.down, on.down) || !slices.Equal(off.up, on.up) {
		t.Fatalf("deliveries differ:\nuntapped %v %v\ntapped   %v %v", off.down, off.up, on.down, on.up)
	}
	if !slices.Equal(off.issued, on.issued) {
		t.Fatalf("OnUpIssued instants differ:\nuntapped %v\ntapped   %v", off.issued, on.issued)
	}
	got := fmt.Sprint(off.blockedDn, off.blockedUp, off.pendDn, off.pendUp, off.busyDn, off.busyUp, off.end)
	want := fmt.Sprint(on.blockedDn, on.blockedUp, on.pendDn, on.pendUp, on.busyDn, on.busyUp, on.allReal)
	if got != want {
		t.Fatalf("blocked, max pend, busy until and end clock differ:\nuntapped %s\ntapped   %s", got, want)
	}
	if off.fired > on.fired || on.end < on.allReal {
		t.Fatalf("untapped link fired %d events, tapped %d ending at %v, before %v", off.fired, on.fired, on.end, on.allReal)
	}
}

// TestReservedDLLPTies: a credit or serializer read at the very instant of
// a reserved DLLP, by an event ordered before the reservation, does not
// see it, as it would not see the real event. A DMA write sent on the
// instant its predecessor's UpdateFC arrives, which took every posted
// data credit, still parks and issues right after; a DMA write sent on
// the instant a CplD's ACK takes the upstream serializer goes first.
func TestReservedDLLPTies(t *testing.T) {
	first := runOps([]linkOp{{kind: opUpMWr, size: 4096}}, false)
	fcAt := first.up[0].at + pcie.AckDelay + 2*pcie.SerTime(pcie.DLLPBytes) + fuzzProp
	read := runOps([]linkOp{{kind: opUpMRd, size: 8}}, false)
	ackAt := read.down[0].at + pcie.AckDelay
	for _, c := range []struct {
		name string
		ops  []linkOp
	}{
		{"UpdateFC", []linkOp{{kind: opUpMWr, size: 4096}, {at: fcAt, kind: opUpMWr, size: 4096}}},
		{"ACK", []linkOp{{kind: opUpMRd, size: 8}, {at: ackAt, kind: opUpMWr, size: 8}}},
	} {
		off, on := runOps(c.ops, false), runOps(c.ops, true)
		sameRuns(t, off, on)
		if c.name == "UpdateFC" && (off.blockedUp != 1 || !slices.Equal(off.issued, []units.Time{fcAt})) {
			t.Errorf("the write on the UpdateFC's instant blocked %d times and issued at %v, want once, at %v", off.blockedUp, off.issued, fcAt)
		}
		if c.name == "ACK" && off.up[1].at != ackAt+pcie.SerTime(8+pcie.TLPHeader)+fuzzProp {
			t.Errorf("the write on the ACK's instant arrived at %v, want it on the wire first, at %v", off.up[1].at, ackAt+pcie.SerTime(8+pcie.TLPHeader)+fuzzProp)
		}
	}
}
