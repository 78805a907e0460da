// Package analyzer models the Lecroy PCIe protocol analyzer from the paper's
// evaluation setup (its Figure 3): a passive instrument sitting on the link
// just before the NIC, timestamping every TLP and DLLP that passes. Like
// the paper's single analyzer, one sits only where a run reads it:
// node.Node.AttachTap puts it on a link, and an untapped link records
// nothing and fires no event for it.
//
// All of the paper's hardware-side measurements are derived from trace
// queries implemented here: downstream deltas (injection overhead, Figure 7),
// TLP-to-ACK round trips (the PCIe component), downstream-to-upstream deltas
// (the Network component) and inbound-pong to outbound-ping deltas (the
// RC-to-MEM component, Figure 9).
package analyzer

import (
	"fmt"
	"slices"
	"strings"

	"breakband/internal/pcie"
	"breakband/internal/stats"
	"breakband/internal/units"
)

// Record is one captured packet.
type Record struct {
	At  units.Time
	Dir pcie.Dir
	// TLP fields; Kind=="TLP" when TLPType is meaningful.
	IsTLP   bool
	TLPType pcie.TLPType
	Addr    uint64
	Payload int
	Seq     uint64
	// DLLP fields.
	DLLPType pcie.DLLPType
	AckSeq   uint64
}

// Kind renders "MWr", "Ack", etc.
func (r Record) Kind() string {
	if r.IsTLP {
		return r.TLPType.String()
	}
	return r.DLLPType.String()
}

// Analyzer is a passive trace recorder implementing pcie.Tap. Because link
// packets are pooled (see the pcie package borrow contract), the analyzer
// copies the fields it keeps into its own records at observation time and
// never retains the packets themselves.
type Analyzer struct {
	name string
	recs []Record // the trace in capture order
}

var _ pcie.Tap = (*Analyzer)(nil)

// New returns an analyzer with an empty trace.
func New(name string) *Analyzer { return &Analyzer{name: name} }

// Name reports the analyzer's label.
func (a *Analyzer) Name() string { return a.name }

// Clear discards the captured trace, retaining its capacity for reuse.
func (a *Analyzer) Clear() { a.recs = a.recs[:0] }

// Len reports the number of records currently held: 0 on a nil analyzer,
// the Tap of a node that never attached one.
func (a *Analyzer) Len() int {
	if a == nil {
		return 0
	}
	return len(a.recs)
}

// ObserveTLP implements pcie.Tap. The TLP is borrowed; the fields the trace
// keeps are copied here.
func (a *Analyzer) ObserveTLP(at units.Time, dir pcie.Dir, t *pcie.TLP) {
	a.recs = append(a.recs, Record{At: at, Dir: dir, IsTLP: true, TLPType: t.Type,
		Addr: t.Addr, Payload: t.PayloadBytes(), Seq: t.Seq})
}

// ObserveDLLP implements pcie.Tap. The DLLP is borrowed; see ObserveTLP.
func (a *Analyzer) ObserveDLLP(at units.Time, dir pcie.Dir, d *pcie.DLLP) {
	a.recs = append(a.recs, Record{At: at, Dir: dir, DLLPType: d.Type, AckSeq: d.AckSeq})
}

// Records returns a copy of the captured trace in time order (capture
// order).
func (a *Analyzer) Records() []Record { return slices.Clone(a.recs) }

// Filter returns the records matching keep.
func (a *Analyzer) Filter(keep func(Record) bool) []Record {
	var out []Record
	for _, r := range a.recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// TLPs returns captured TLPs of the given direction and type, with payload
// size in [minPayload, maxPayload] (maxPayload<=0 means unbounded).
func (a *Analyzer) TLPs(dir pcie.Dir, typ pcie.TLPType, minPayload, maxPayload int) []Record {
	return a.Filter(func(r Record) bool {
		if !r.IsTLP || r.Dir != dir || r.TLPType != typ {
			return false
		}
		if r.Payload < minPayload {
			return false
		}
		if maxPayload > 0 && r.Payload > maxPayload {
			return false
		}
		return true
	})
}

// Deltas computes successive timestamp differences (ns) over records. This is
// the paper's injection-overhead derivation: deltas of consecutive
// downstream 64-byte MWr transactions (Figures 6 and 7).
func Deltas(recs []Record) *stats.Sample {
	var s stats.Sample
	for i := 1; i < len(recs); i++ {
		s.Add((recs[i].At - recs[i-1].At).Ns())
	}
	return &s
}

// AckRoundTrips matches each TLP in recsDir against the first subsequent ACK
// DLLP in the opposite direction with the same sequence number, and returns
// half the deltas in nanoseconds — the paper's measurement of the PCIe
// component (one-way wire time between analyzer and RC).
func (a *Analyzer) AckRoundTrips(dir pcie.Dir, typ pcie.TLPType) *stats.Sample {
	ackDir := pcie.Down
	if dir == pcie.Down {
		ackDir = pcie.Up
	}
	var s stats.Sample
	pending := map[uint64]units.Time{}
	for _, r := range a.recs {
		switch {
		case r.IsTLP && r.Dir == dir && r.TLPType == typ:
			pending[r.Seq] = r.At
		case !r.IsTLP && r.Dir == ackDir && r.DLLPType == pcie.Ack:
			if t0, ok := pending[r.AckSeq]; ok {
				s.Add((r.At - t0).Ns() / 2)
				delete(pending, r.AckSeq)
			}
		}
	}
	return &s
}

// PairDeltas walks the trace matching each record satisfying first with the
// next later record satisfying second, returning the deltas (ns). It
// implements both the Network measurement (downstream 64B ping -> next
// upstream 64B completion) and the RC-to-MEM methodology of Figure 9
// (inbound pong -> outbound ping).
func (a *Analyzer) PairDeltas(first, second func(Record) bool) *stats.Sample {
	var s stats.Sample
	var t0 units.Time
	armed := false
	for _, r := range a.recs {
		if !armed {
			if first(r) {
				t0 = r.At
				armed = true
			}
			continue
		}
		if second(r) {
			s.Add((r.At - t0).Ns())
			armed = false
		}
	}
	return &s
}

// FormatTrace renders up to n records as an aligned text table in the style
// of the paper's Figure 6.
func (a *Analyzer) FormatTrace(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-6s %-6s %-8s %-16s %s\n", "TIME", "DIR", "KIND", "PAYLOAD", "ADDR", "SEQ")
	for i, r := range a.recs {
		if n > 0 && i == n {
			fmt.Fprintf(&b, "... (%d more records)\n", len(a.recs)-n)
			break
		}
		addr := ""
		if r.IsTLP {
			addr = fmt.Sprintf("%#x", r.Addr)
		}
		fmt.Fprintf(&b, "%-14s %-6s %-6s %-8d %-16s %d\n",
			r.At.String(), r.Dir.String(), r.Kind(), r.Payload, addr, r.Seq)
	}
	return b.String()
}
