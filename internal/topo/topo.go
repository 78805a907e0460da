// Package topo grows the paper's Network = Wire + Switch decomposition into
// declarative multi-switch topologies: a topology Spec is compiled into
// per-switch routing tables and store-and-forward switches whose output
// ports model serialization queues and link-level credit flow control, so
// shared links actually congest. It is the one network of the simulator:
// every system, two-node or N-node, routes all traffic through its Fabric
// (node.NewSystem builds it), and the NICs drive it directly.
//
// # Scenario catalog
//
//   - Back-to-back (two hosts, one cable): the paper's switchless baseline.
//   - Single switch (N hosts in a star): the paper's main configuration for
//     N=2, and the first contention scenario for N>2 — incast
//     (perftest.OversubscribedPutBw with no rx budget) funnels N-1 senders
//     into one receiver downlink port, whose queue is where the congestion
//     lives.
//   - Fat-tree (two-tier folded Clos of radix-k switches: k/2 hosts per
//     leaf, k/2 spines, up to k leaves): multi-switch paths with shared
//     leaf-spine links. All-to-all traffic (perftest.AllToAllPutBw)
//     exercises every tier; up-path spine selection is deterministic
//     destination-based ECMP (spine = dst mod k/2), so runs are exactly
//     reproducible.
//   - Oversubscribed incast (perftest.OversubscribedPutBw with an rx
//     budget): the incast shape sized so the receiver's PCIe link, not the
//     wire, is the bottleneck, against a NIC with bounded rx buffering
//     (config.Config.NICRxBudget) — held frames pin their final-hop
//     credits here (see below) and overflow turns into RNR NAK / retry
//     traffic riding the reverse path. The full catalog with run commands
//     lives in ARCHITECTURE.md.
//
// # Queueing and credit model
//
// Each directed link is driven by exactly one output port (a host NIC's
// injection egress or a switch output port). A port serializes frames one
// at a time (fabric.SerTime — the same arithmetic the two-endpoint
// tier uses) and owns a FIFO of frames waiting for the wire. The
// downstream end of every link advertises Spec.Credits buffer slots: a
// frame consumes one credit when its transmission starts and returns it
// when it leaves the downstream element — departing the next switch's
// output port, or, on the final hop, when the receiving port *releases*
// the frame (the borrow contract doubles as the buffer accounting, so a
// receiver that defers processing keeps exerting backpressure). The NIC
// leans on exactly that: it releases a delivered data frame only when the
// frame's host-memory writes have been issued on its PCIe link, so a
// receiver whose PCIe is slower than the wire pins final-hop credits and
// the congestion backs up through the switches to the senders instead of
// pooling in an unbounded NIC buffer. A port
// with queued frames and no credits stalls; returning credits restart it.
// Backpressure therefore propagates hop by hop toward the senders,
// exactly the victim-flow mechanics shared links exhibit. Up/down routing
// is cycle-free in both compiled topologies, so credit waits cannot
// deadlock.
//
// Switches are store-and-forward: a frame must be fully received
// (serialization at the upstream port) before the switch's forwarding
// latency (fabric.Config.SwitchLatency) and its own output-port
// serialization apply. Per hop, an uncontended frame costs
// SerTime + WireProp/2 + SwitchLatency: the calibrated two-endpoint
// WireProp spans the two cables of the paper's single-switch setup, so
// each compiled cable contributes half.
//
// The one deliberate exception is the two-host back-to-back and
// single-switch topologies, which reproduce the paper's calibrated model
// bit for bit: one egress serialization, then a constant flight of
// WireProp, plus SwitchLatency on the single-switch shape, with the switch
// as an ideal cut-through constant. The golden kernel fixture pins this
// tier, and TestIdealTierMatchesNetwork checks it against the closed
// form. Contention modelling engages for N>2, where shared ports exist.
// Fabric.UncontendedWire reports the uncontended wire time on every tier;
// stall attribution calibrates against it.
//
// # What a port schedules
//
// An uncontended hop costs one kernel event, the frame's arrival. When a
// port starts a frame (kick), the end of its serialization (txDone) would
// schedule the arrival, return the inbound credit the frame holds and
// start the next queued frame. When nothing can read those changes before
// txDone is due — the frame draws no fault (the port draws at kick, and a
// dropped or corrupted frame's txDone counts the fault on the injector's
// counters, which its readers read directly), no frame waits behind it,
// and the port upstream is not stalled on the credit — the port reserves
// txDone (sim.Kernel.Reserve) and queues the arrival at once
// (sim.Kernel.AtFor), whose tie guard keeps every event in its order. The
// reservation settles when the port or the credit it returns is next read:
// at the port's next push or kick, at PortStats, and when the port
// upstream finds no credit left, which settles the due returns on its link
// first. It becomes the real txDone when a frame is pushed behind it
// before it is due, or when that upstream port stalls on the credit. A
// port whose last pushed frame found it sending keeps its txDones real
// until a push finds it idle: in a saturated pipeline nearly every
// reservation would be demoted, which costs more than the real event. A
// port with scripted flaps keeps every txDone real and draws its faults
// there, since a frame a flap kills mid-transmission must consume no fault
// ordinal. FuzzReservedHops checks the fabric against one whose ports keep
// every txDone real.
//
// # Pooled frames and the borrow contract
//
// The fabric owns a generation-checked frame arena (fabric.NewFrameArena),
// beside it the system's one pool of payload buffers (Payloads), and obeys
// the borrow contract documented in internal/fabric: senders
// allocate with NewFrame and hand ownership to Send; the fabric owns
// frames across every hop (switch queues hold borrowed pointers, never
// copies); delivery transfers ownership to the receiving port, which must
// Release. The steady-state switch path allocates nothing: the port queues
// (fifo.Queue) and the event pool reach a high-water mark bounded by the
// credit budget and recycle thereafter (pinned by internal/simbench's
// switch-path alloc budget test).
package topo

import "fmt"

// Kind selects the compiled topology shape.
type Kind int

// Topology kinds.
const (
	// Auto is SingleSwitch: the paper's main configuration for two hosts
	// and the shared-switch star for more. Choose BackToBack explicitly
	// for the switchless two-host path.
	Auto Kind = iota
	// BackToBack cables exactly two hosts directly.
	BackToBack
	// SingleSwitch stars every host around one switch.
	SingleSwitch
	// FatTree builds the two-tier folded Clos described in the package
	// doc.
	FatTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Auto:
		return "auto"
	case BackToBack:
		return "backtoback"
	case SingleSwitch:
		return "switch"
	case FatTree:
		return "fattree"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind parses a topology name as accepted by the CLIs.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "auto":
		return Auto, nil
	case "backtoback", "direct":
		return BackToBack, nil
	case "switch", "singleswitch":
		return SingleSwitch, nil
	case "fattree":
		return FatTree, nil
	}
	return Auto, fmt.Errorf("topo: unknown topology %q (want auto, backtoback, switch or fattree)", s)
}

// DefaultCredits is the per-link credit budget (downstream buffer slots in
// frames) when Spec.Credits is zero.
const DefaultCredits = 16

// Spec declares a topology. The zero Spec is Auto with defaults: a single
// switch, which for two hosts is the paper's calibrated switched path.
type Spec struct {
	Kind Kind
	// Radix is the switch port count for FatTree (even, >= 2): k/2 hosts
	// hang off each leaf and k/2 spines interconnect up to k leaves. Zero
	// selects the smallest radix that fits the host count.
	Radix int
	// Credits is the link-level credit budget (frames buffered at each
	// link's downstream end); zero selects DefaultCredits.
	Credits int

	// hosts is filled in by Resolve for diagnostics.
	hosts int
}

// String names the topology in panics and reports, e.g.
// "fattree(radix=4, hosts=8, credits=16)".
func (s Spec) String() string {
	hosts := ""
	if s.hosts > 0 {
		hosts = fmt.Sprintf("hosts=%d", s.hosts)
	}
	switch s.Kind {
	case FatTree:
		return fmt.Sprintf("fattree(radix=%d, %s, credits=%d)", s.Radix, hosts, s.Credits)
	case BackToBack:
		return fmt.Sprintf("backtoback(%s)", hosts)
	default:
		return fmt.Sprintf("%s(%s, credits=%d)", s.Kind, hosts, s.Credits)
	}
}

// Validate reports why the spec cannot compile for the given host count,
// or nil when it can. CLIs use it to turn flag mistakes into usage errors
// instead of the panics NewFabric raises on programmer error.
func (s Spec) Validate(hosts int) error {
	_, err := s.Resolve(hosts)
	return err
}

// Resolve validates the spec against the host count and fills defaults,
// returning the concrete topology NewFabric compiles for it, the one
// Fabric.Spec reports.
func (s Spec) Resolve(hosts int) (Spec, error) {
	if hosts < 2 {
		return s, fmt.Errorf("a fabric needs at least two hosts, got %d", hosts)
	}
	r := s
	r.hosts = hosts
	if r.Credits == 0 {
		r.Credits = DefaultCredits
	}
	if r.Credits < 1 {
		return r, fmt.Errorf("%s: credits must be positive", r)
	}
	switch r.Kind {
	case Auto:
		r.Kind = SingleSwitch
	case BackToBack:
		if hosts != 2 {
			return r, fmt.Errorf("backtoback cables exactly 2 hosts, got %d", hosts)
		}
	case SingleSwitch:
	case FatTree:
		if r.Radix == 0 {
			for r.Radix = 2; r.Radix*r.Radix/2 < hosts; r.Radix += 2 {
			}
		}
		if r.Radix < 2 || r.Radix%2 != 0 {
			return r, fmt.Errorf("%s: fat-tree radix must be even and >= 2", r)
		}
		if cap := r.Radix * r.Radix / 2; cap < hosts {
			return r, fmt.Errorf("%s: radix %d supports at most %d hosts", r, r.Radix, cap)
		}
	default:
		return r, fmt.Errorf("unknown topology kind %d", int(r.Kind))
	}
	return r, nil
}
