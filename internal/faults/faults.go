package faults

import (
	"fmt"
	"sort"

	"breakband/internal/rng"
	"breakband/internal/units"
)

// ScriptedDrop drops exactly the N-th frame (1-based, in per-link transmit
// order) that departs the named port.
type ScriptedDrop struct {
	Port string
	N    uint64
}

// Flap takes the named port's link down at Down and restores it at Up
// (absolute simulation times). While down the port transmits nothing, its
// queued frames are dropped, and — where the topology has path redundancy —
// ECMP routes divert around it.
type Flap struct {
	Port string
	Down units.Time
	Up   units.Time
}

// Crash schedules an endpoint failure: the named node's NIC goes dark at At.
// Inbound frames are discarded, every QP fails locally with a fatal error
// CQE, posted receives are flushed, and peers discover the death through
// their own ACK-timeout → retry-exhaustion path. RestartAt, when nonzero,
// brings the NIC back up at that time with its QP table wiped: recovery
// requires fresh-epoch QPs (software reconnects; the dead generation's QPs
// stay errored forever).
type Crash struct {
	Node      int
	At        units.Time
	RestartAt units.Time // zero: the node stays dead
}

// Pause stalls the named node's host between At and Resume: the endpoint→RC
// PCIe issue path parks every upstream TLP (the model of a GC pause, an OS
// scheduling stall, or SMI jitter). The NIC keeps receiving but cannot
// complete host-memory writes, so its bounded rx buffering fills and the
// node answers with RNR NAKs until the host resumes.
type Pause struct {
	Node   int
	At     units.Time
	Resume units.Time
}

// Config declares a deterministic fault schedule. The zero Config injects
// nothing and costs nothing (Enabled reports false and the delivery layers
// keep their fault hooks nil).
type Config struct {
	// DropRate is the per-frame Bernoulli probability that a departing
	// frame is lost on the wire, applied to every link. In [0, 1].
	DropRate float64
	// CorruptRate is the per-frame Bernoulli probability that a departing
	// frame arrives with a bad CRC and is discarded at the next
	// store-and-forward check. In [0, 1]; drop is decided first, so at most
	// one fault applies per frame.
	CorruptRate float64
	// DropNth lists scripted one-shot drops.
	DropNth []ScriptedDrop
	// Flaps lists link down/up windows.
	Flaps []Flap
	// Crashes lists endpoint NIC failures (with optional restart).
	Crashes []Crash
	// Pauses lists host PCIe-issue stall windows.
	Pauses []Pause
}

// Enabled reports whether the config injects any fault at all.
func (c *Config) Enabled() bool {
	return c.DropRate > 0 || c.CorruptRate > 0 || len(c.DropNth) > 0 ||
		len(c.Flaps) > 0 || len(c.Crashes) > 0 || len(c.Pauses) > 0
}

// Validate checks the schedule: rates must lie in [0, 1], scripted drops
// must name a port and a positive ordinal, and flaps must name a port and
// go down strictly before they come back up.
func (c *Config) Validate() error {
	if c.DropRate < 0 || c.DropRate > 1 {
		return fmt.Errorf("faults: drop rate %v outside [0, 1]", c.DropRate)
	}
	if c.CorruptRate < 0 || c.CorruptRate > 1 {
		return fmt.Errorf("faults: corrupt rate %v outside [0, 1]", c.CorruptRate)
	}
	if c.DropRate+c.CorruptRate > 1 {
		return fmt.Errorf("faults: drop rate %v + corrupt rate %v exceeds 1", c.DropRate, c.CorruptRate)
	}
	for _, d := range c.DropNth {
		if d.Port == "" {
			return fmt.Errorf("faults: scripted drop without a port name")
		}
		if d.N == 0 {
			return fmt.Errorf("faults: scripted drop on %q: frame ordinals are 1-based, got 0", d.Port)
		}
	}
	for _, f := range c.Flaps {
		if f.Port == "" {
			return fmt.Errorf("faults: flap without a port name")
		}
		if f.Down >= f.Up {
			return fmt.Errorf("faults: flap on %q: down %v >= up %v", f.Port, f.Down, f.Up)
		}
	}
	for _, cr := range c.Crashes {
		if cr.Node < 0 {
			return fmt.Errorf("faults: crash on negative node %d", cr.Node)
		}
		if cr.RestartAt != 0 && cr.RestartAt <= cr.At {
			return fmt.Errorf("faults: crash on node %d: restart %v <= crash %v", cr.Node, cr.RestartAt, cr.At)
		}
	}
	for _, p := range c.Pauses {
		if p.Node < 0 {
			return fmt.Errorf("faults: pause on negative node %d", p.Node)
		}
		if p.Resume <= p.At {
			return fmt.Errorf("faults: pause on node %d: resume %v <= pause %v", p.Node, p.Resume, p.At)
		}
	}
	return nil
}

// Outcome is one transmit decision.
type Outcome uint8

// Transmit outcomes.
const (
	// Deliver lets the frame fly untouched.
	Deliver Outcome = iota
	// Drop loses the frame on the wire after serialization.
	Drop
	// Corrupt delivers the frame with a bad CRC: it consumes wire
	// bandwidth but is discarded by the next store-and-forward check.
	Corrupt
)

// Link is one port's fault state: its RNG stream, its slice of the
// scripted schedule, and the observability counters the delivery layers
// and reports read.
type Link struct {
	// Name is the compiled port name this state belongs to.
	Name string

	rand    *rng.Rand // nil when both Bernoulli rates are zero
	drop    float64
	corrupt float64
	script  map[uint64]struct{} // scripted drop ordinals (1-based)
	sent    uint64              // frames decided so far

	// Dropped and Corrupted count faults injected on this link (scripted
	// and flap-induced drops included); Flaps counts down transitions.
	Dropped   uint64
	Corrupted uint64
	Flaps     uint64
}

// Decide returns the departing frame's fate and counts it: Count(Draw()).
func (l *Link) Decide() Outcome {
	o := l.Draw()
	l.Count(o)
	return o
}

// Draw returns the next frame's fate without counting it, for a port that
// decides when a frame starts to serialize and counts the fault when the
// frame leaves. Scripted drops fire first; the Bernoulli draw is keyed to
// the per-link frame ordinal alone, so a decision depends only on (seed,
// port, ordinal) — never on event interleaving across links.
func (l *Link) Draw() Outcome {
	l.sent++
	// The draw is unconditional so the stream stays ordinal-aligned:
	// adding a scripted drop leaves every other Bernoulli decision on the
	// link unchanged.
	u := 1.0
	if l.rand != nil {
		u = l.rand.Float64()
	}
	if l.script != nil {
		if _, hit := l.script[l.sent]; hit {
			return Drop
		}
	}
	if u < l.drop {
		return Drop
	}
	if u < l.drop+l.corrupt {
		return Corrupt
	}
	return Deliver
}

// Count records a drawn fault: a Drop in Dropped, a Corrupt in Corrupted.
func (l *Link) Count(o Outcome) {
	switch o {
	case Drop:
		l.Dropped++
	case Corrupt:
		l.Corrupted++
	}
}

// CountDrop records a fault-induced drop decided outside Draw (a frame
// dropped from a dead port's queue, or pushed at a dead port).
func (l *Link) CountDrop() { l.Dropped++ }

// CountFlap records a down transition.
func (l *Link) CountFlap() { l.Flaps++ }

// Sent reports how many transmit decisions this link has made.
func (l *Link) Sent() uint64 { return l.sent }

// Injector compiles a validated Config against a seed into per-link
// decision state. The network adopts it once at system build time
// (topo.Fabric.InjectFaults) and then consults the per-port Links on its
// transmit paths.
type Injector struct {
	seed  uint64
	cfg   Config
	links map[string]*Link
	nodes map[int]*NodeFaults
}

// NodeFaults is one node's endpoint fault record: how many times its NIC
// crashed and how many host pause windows it served. The node layer counts
// into it as the scheduled events actually fire.
type NodeFaults struct {
	Node    int
	Crashes uint64
	Pauses  uint64
}

// NewInjector validates cfg and builds the injector. The seed is the
// campaign seed; per-link streams derive from it and the port name.
func NewInjector(seed uint64, cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{seed: seed, cfg: cfg, links: make(map[string]*Link), nodes: make(map[int]*NodeFaults)}, nil
}

// MustInjector is NewInjector for callers whose Config was already
// validated (panics on error).
func MustInjector(seed uint64, cfg Config) *Injector {
	inj, err := NewInjector(seed, cfg)
	if err != nil {
		panic(err)
	}
	return inj
}

// Config reports the compiled schedule.
func (i *Injector) Config() Config { return i.cfg }

// Bernoulli reports whether every link needs fault state (a nonzero rate
// applies fabric-wide); otherwise only scripted/flapped ports do.
func (i *Injector) Bernoulli() bool { return i.cfg.DropRate > 0 || i.cfg.CorruptRate > 0 }

// Link returns (creating on first use) the fault state for the named port.
func (i *Injector) Link(name string) *Link {
	if l, ok := i.links[name]; ok {
		return l
	}
	l := &Link{Name: name, drop: i.cfg.DropRate, corrupt: i.cfg.CorruptRate}
	if i.Bernoulli() {
		l.rand = rng.Stream(i.seed, "faults/"+name)
	}
	for _, d := range i.cfg.DropNth {
		if d.Port != name {
			continue
		}
		if l.script == nil {
			l.script = make(map[uint64]struct{})
		}
		l.script[d.N] = struct{}{}
	}
	i.links[name] = l
	return l
}

// ScriptPorts reports the sorted, deduplicated port names the scripted
// drops and flaps reference — the names a delivery layer must resolve (and
// panic on, when unknown) at adoption time.
func (i *Injector) ScriptPorts() []string {
	seen := map[string]bool{}
	for _, d := range i.cfg.DropNth {
		seen[d.Port] = true
	}
	for _, f := range i.cfg.Flaps {
		seen[f.Port] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// FlapsFor reports the flap windows scheduled for the named port, in
// config order.
func (i *Injector) FlapsFor(name string) []Flap {
	var out []Flap
	for _, f := range i.cfg.Flaps {
		if f.Port == name {
			out = append(out, f)
		}
	}
	return out
}

// Links snapshots every instantiated per-link state, sorted by port name —
// the per-link Dropped/Corrupted/Flaps report.
func (i *Injector) Links() []*Link {
	out := make([]*Link, 0, len(i.links))
	for _, l := range i.links {
		out = append(out, l)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Totals sums the per-link counters.
func (i *Injector) Totals() (dropped, corrupted, flaps uint64) {
	for _, l := range i.links {
		dropped += l.Dropped
		corrupted += l.Corrupted
		flaps += l.Flaps
	}
	return
}

// Node returns (creating on first use) the endpoint fault record for the
// given node id.
func (i *Injector) Node(id int) *NodeFaults {
	if n, ok := i.nodes[id]; ok {
		return n
	}
	n := &NodeFaults{Node: id}
	i.nodes[id] = n
	return n
}

// CrashesFor reports the crash schedule for the given node, in config order.
func (i *Injector) CrashesFor(node int) []Crash {
	var out []Crash
	for _, c := range i.cfg.Crashes {
		if c.Node == node {
			out = append(out, c)
		}
	}
	return out
}

// PausesFor reports the pause windows for the given node, in config order.
func (i *Injector) PausesFor(node int) []Pause {
	var out []Pause
	for _, p := range i.cfg.Pauses {
		if p.Node == node {
			out = append(out, p)
		}
	}
	return out
}

// NodeFaultRecords snapshots every instantiated per-node record, sorted by
// node id — the per-node crash/pause report.
func (i *Injector) NodeFaultRecords() []*NodeFaults {
	out := make([]*NodeFaults, 0, len(i.nodes))
	for _, n := range i.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}

// NodeTotals sums the per-node endpoint fault counters.
func (i *Injector) NodeTotals() (crashes, pauses uint64) {
	for _, n := range i.nodes {
		crashes += n.Crashes
		pauses += n.Pauses
	}
	return
}
