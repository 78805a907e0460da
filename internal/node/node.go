// Package node composes the hardware substrates into complete nodes and
// N-node systems: per node a host memory, a PCIe link with its Root
// Complex and NIC endpoint, and a profiler over the node's virtual timer;
// plus the shared network fabric — a compiled internal/topo topology
// selected by Config.Topology (two nodes default to the paper's calibrated
// two-endpoint path, bit for bit).
//
// A node carries no PCIe analyzer until a run that reads one attaches it
// with Node.AttachTap. The paper's Figure 3 places a single analyzer
// before node 1's NIC; every consumer here reads node 0's.
package node

import (
	"fmt"

	"breakband/internal/analyzer"
	"breakband/internal/config"
	"breakband/internal/faults"
	"breakband/internal/memsim"
	"breakband/internal/nic"
	"breakband/internal/pcie"
	"breakband/internal/profile"
	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/trace"
	"breakband/internal/vtimer"
)

// Node is one server: CPU-side facilities (the profiler, which owns the
// node's timer, and the RNG stream for software costs), host memory, and
// the I/O subsystem.
type Node struct {
	ID   int
	Mem  *memsim.Memory
	Link *pcie.Link
	RC   *pcie.RootComplex
	NIC  *nic.NIC
	Tap  *analyzer.Analyzer // PCIe analyzer on Link (nil until AttachTap)
	Prof *profile.Profiler
	Rand *rng.Rand // software-cost noise stream (nil when noise is off)
}

// System is a set of nodes on a common fabric, driven by one simulation
// kernel.
type System struct {
	K   *sim.Kernel
	Cfg *config.Config
	// Net is the network every NIC drives: the topology Config.Topology
	// compiles to (port/queue statistics included).
	Net   *topo.Fabric
	Nodes []*Node
	// Faults is the compiled fault injector, nil unless cfg.Faults enables
	// anything (per-link counters for reports live here).
	Faults *faults.Injector
}

// NewSystem builds n nodes per cfg, wired through the topology
// cfg.Topology compiles to. Node 0 plays the paper's "node 1" initiator
// role in the two-node benchmarks (and the incast receiver in the
// contention scenarios).
func NewSystem(cfg *config.Config, n int) *System {
	if n < 2 {
		panic("node: a system needs at least two nodes")
	}
	k := sim.NewKernel()
	if cfg.TraceCapacity > 0 {
		// The tracer must be on the kernel before any layer is built:
		// fabric, NICs and links capture the pointer at construction.
		k.SetTracer(trace.New(cfg.TraceCapacity))
	}
	sys := &System{K: k, Cfg: cfg, Net: topo.NewFabric(k, cfg.Fabric, cfg.Topology, n)}
	if cfg.Faults.Enabled() {
		inj, err := faults.NewInjector(cfg.Seed, cfg.Faults)
		if err != nil {
			panic(fmt.Sprintf("node: %v", err))
		}
		sys.Faults = inj
		sys.Topo().InjectFaults(inj)
	}
	for i := 0; i < n; i++ {
		sys.Nodes = append(sys.Nodes, newNode(k, sys.Net, cfg, i))
	}
	if sys.Faults != nil {
		sys.scheduleEndpointFaults()
	}
	return sys
}

// scheduleEndpointFaults arms the configured endpoint faults as kernel
// events: NIC crashes (with optional restart) and host pause windows on the
// node's PCIe upstream issue path. Fault schedules naming nonexistent nodes
// panic at build time, like unknown ports in topo.InjectFaults. The
// injector's per-node records count each fault as it actually fires.
func (s *System) scheduleEndpointFaults() {
	cfg := s.Faults.Config()
	for _, c := range cfg.Crashes {
		if c.Node >= len(s.Nodes) {
			panic(fmt.Sprintf("node: crash scheduled on unknown node %d (%d nodes)", c.Node, len(s.Nodes)))
		}
		nd, rec := s.Nodes[c.Node], s.Faults.Node(c.Node)
		s.K.At(c.At, func() {
			rec.Crashes++
			nd.NIC.Crash()
		})
		if c.RestartAt != 0 {
			s.K.At(c.RestartAt, func() { nd.NIC.Restart() })
		}
	}
	for _, p := range cfg.Pauses {
		if p.Node >= len(s.Nodes) {
			panic(fmt.Sprintf("node: pause scheduled on unknown node %d (%d nodes)", p.Node, len(s.Nodes)))
		}
		nd, rec := s.Nodes[p.Node], s.Faults.Node(p.Node)
		s.K.At(p.At, func() {
			rec.Pauses++
			nd.Link.PauseUp()
		})
		s.K.At(p.Resume, func() { nd.Link.ResumeUp() })
	}
}

// Topo reports the system's compiled topology fabric, the same one as Net.
func (s *System) Topo() *topo.Fabric { return s.Net }

// Tracer reports the system's event tracer (nil when Config.TraceCapacity
// is zero).
func (s *System) Tracer() *trace.Tracer { return s.K.Tracer() }

func newNode(k *sim.Kernel, net *topo.Fabric, cfg *config.Config, id int) *Node {
	mem := memsim.New(cfg.MemBytes)
	link := pcie.NewLink(k, cfg.Link)
	link.SetTraceNode(id)
	rc := pcie.NewRootComplex(k, mem, link, cfg.RC)
	nc := cfg.NIC
	if cfg.NICRxBudget > 0 {
		// The system-level knob wins over a per-NIC setting only when
		// set, so configs that tune cfg.NIC directly keep working.
		nc.RxBudget = cfg.NICRxBudget
	}
	if cfg.Faults.Enabled() && nc.AckTimeout == 0 {
		// A lossy fabric needs the timeout recovery armed; a config that
		// sets NIC.AckTimeout explicitly keeps its value. Without faults
		// the timer stays disabled and the NIC is byte-identical with the
		// pre-reliability model.
		nc.AckTimeout = nic.DefaultAckTimeout
	}
	dev := nic.New(k, id, mem, link, net, nc)
	r := cfg.Rand(fmt.Sprintf("node%d", id))
	return &Node{
		ID:   id,
		Mem:  mem,
		Link: link,
		RC:   rc,
		NIC:  dev,
		Prof: profile.New(vtimer.New(k, cfg.Prof.TimerHz, cfg.Prof.Isb, cfg.Prof.Read, r)),
		Rand: r,
	}
}

// AttachTap puts a passive PCIe analyzer on the node's link, just before
// its NIC, and returns it; a second call returns the same analyzer. Attach
// it right after building the system, before any traffic. The analyzer
// keeps every capture until Clear. The perftest benchmarks treat a tapped
// initiator as a request for the measured window alone: they settle the
// link and clear the analyzer when warmup ends.
func (n *Node) AttachTap() *analyzer.Analyzer {
	if n.Tap == nil {
		n.Tap = analyzer.New(fmt.Sprintf("node%d", n.ID))
		n.Link.SetTap(n.Tap)
	}
	return n.Tap
}

// Run executes the simulation until the event queue drains.
func (s *System) Run() uint64 { return s.K.Run() }

// Shutdown cancels any unfinished tasks. Always call it when a simulation
// is finished, especially from tests that build many systems.
func (s *System) Shutdown() { s.K.Shutdown() }
