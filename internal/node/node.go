// Package node composes the hardware substrates into complete nodes and
// N-node systems: per node a host memory, a PCIe link with its Root
// Complex and NIC endpoint, a passive PCIe analyzer tap (the paper's
// Figure 3 places one before node 1's NIC; we give every node one), a
// virtual timer and a profiler; plus the shared network fabric — a
// compiled internal/topo topology selected by Config.Topology (two nodes
// default to the paper's calibrated two-endpoint path, bit for bit).
package node

import (
	"fmt"

	"breakband/internal/analyzer"
	"breakband/internal/config"
	"breakband/internal/fabric"
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

// Node is one server: CPU-side facilities (timer, profiler, RNG stream for
// software costs), host memory, and the I/O subsystem.
type Node struct {
	ID    int
	Mem   *memsim.Memory
	Link  *pcie.Link
	RC    *pcie.RootComplex
	NIC   *nic.NIC
	Tap   *analyzer.Analyzer
	Timer *vtimer.Timer
	Prof  *profile.Profiler
	Rand  *rng.Rand // software-cost noise stream (nil when noise is off)
}

// System is a set of nodes on a common fabric, driven by one simulation
// kernel.
type System struct {
	K   *sim.Kernel
	Cfg *config.Config
	// Net is the delivery fabric — a compiled topo.Fabric (type-assert to
	// *topo.Fabric for port/queue statistics).
	Net   fabric.Deliverer
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

// Topo reports the system's compiled topology fabric.
func (s *System) Topo() *topo.Fabric { return s.Net.(*topo.Fabric) }

// Tracer reports the system's event tracer (nil when Config.TraceCapacity
// is zero).
func (s *System) Tracer() *trace.Tracer { return s.K.Tracer() }

func newNode(k *sim.Kernel, net fabric.Deliverer, cfg *config.Config, id int) *Node {
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
	if cfg.NICRxBudgetPerQP > 0 {
		nc.RxBudgetPerQP = cfg.NICRxBudgetPerQP
	}
	if cfg.Faults.Enabled() && nc.AckTimeout == 0 {
		// A lossy fabric needs the timeout recovery armed; a config that
		// sets NIC.AckTimeout explicitly keeps its value. Without faults
		// the timer stays disabled and the NIC is byte-identical with the
		// pre-reliability model.
		nc.AckTimeout = nic.DefaultAckTimeout
	}
	dev := nic.New(k, id, mem, link, net, nc)
	tap := analyzer.New(fmt.Sprintf("node%d", id))
	link.AddTap(tap)
	r := cfg.Rand(fmt.Sprintf("node%d", id))
	tmr := vtimer.New(k, cfg.Prof.TimerHz, cfg.Prof.Isb, cfg.Prof.Read, r)
	return &Node{
		ID:    id,
		Mem:   mem,
		Link:  link,
		RC:    rc,
		NIC:   dev,
		Tap:   tap,
		Timer: tmr,
		Prof:  profile.New(tmr),
		Rand:  r,
	}
}

// Run executes the simulation until the event queue drains.
func (s *System) Run() uint64 { return s.K.Run() }

// Shutdown cancels any unfinished tasks. Always call it when a simulation
// is finished, especially from tests that build many systems.
func (s *System) Shutdown() { s.K.Shutdown() }
