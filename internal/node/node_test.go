package node

import (
	"slices"
	"testing"

	"breakband/internal/config"
	"breakband/internal/pcie"
	"breakband/internal/topo"
)

// TestNewSystemMultiNode: N-node systems compile their configured topology
// and wire every node onto it.
func TestNewSystemMultiNode(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.FatTree}
	sys := NewSystem(cfg, 8)
	defer sys.Shutdown()
	if len(sys.Nodes) != 8 {
		t.Fatalf("nodes = %d", len(sys.Nodes))
	}
	fab := sys.Topo()
	if got := len(fab.Switches()); got != 6 {
		t.Errorf("fat-tree of 8 hosts compiled %d switches, want 6", got)
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("fresh system has %d live frames", fab.InUseFrames())
	}
}

func TestNewSystem(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sys := NewSystem(cfg, 2)
	defer sys.Shutdown()
	if len(sys.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(sys.Nodes))
	}
	for i, n := range sys.Nodes {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
		if n.Mem == nil || n.Link == nil || n.RC == nil || n.NIC == nil ||
			n.Timer == nil || n.Prof == nil {
			t.Errorf("node %d incompletely wired", i)
		}
		if n.Tap != nil {
			t.Errorf("node %d has an analyzer nobody attached", i)
		}
		if n.NIC.ID() != i {
			t.Errorf("NIC id = %d", n.NIC.ID())
		}
		if n.Rand != nil {
			t.Error("deterministic mode should have nil RNG")
		}
	}
}

// TestAttachTap: AttachTap puts one analyzer on the node's link, returns
// the same one when called again, leaves the other nodes untapped, and
// records the traffic that then crosses the link.
func TestAttachTap(t *testing.T) {
	sys := NewSystem(config.TX2CX4(config.NoiseOff, 1, true), 2)
	defer sys.Shutdown()
	n0 := sys.Nodes[0]
	tap := n0.AttachTap()
	if tap == nil || n0.Tap != tap || n0.AttachTap() != tap {
		t.Fatal("AttachTap is not idempotent")
	}
	if sys.Nodes[1].Tap != nil {
		t.Error("attaching node 0's tap tapped node 1")
	}
	// One 8-byte NIC write into host memory: the MWr leaves the NIC, the
	// RC's ACK and credit return come back down.
	buf := n0.Mem.Alloc("tap.test", 64, 64)
	sys.K.At(0, func() {
		w := n0.Link.NewTLP()
		w.Type = pcie.MWr
		w.Addr = buf.Base
		w.SetData(make([]byte, 8))
		n0.Link.SendUp(w)
	})
	sys.Run()
	var got []string
	for _, r := range tap.Records() {
		got = append(got, r.Dir.String()+" "+r.Kind())
	}
	want := []string{"up MWr", "down Ack", "down UpdateFC"}
	if !slices.Equal(got, want) {
		t.Errorf("tap recorded %v, want %v", got, want)
	}
}

func TestNoisyNodesGetDistinctStreams(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOn, 5, true)
	sys := NewSystem(cfg, 2)
	defer sys.Shutdown()
	r0, r1 := sys.Nodes[0].Rand, sys.Nodes[1].Rand
	if r0 == nil || r1 == nil {
		t.Fatal("noisy mode should provide generators")
	}
	if r0.Uint64() == r1.Uint64() {
		t.Error("node streams identical")
	}
}

func TestSystemRequiresTwoNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("1-node system did not panic")
		}
	}()
	NewSystem(config.TX2CX4(config.NoiseOff, 1, true), 1)
}

func TestRunAndShutdownIdempotent(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sys := NewSystem(cfg, 2)
	sys.Run()
	sys.Shutdown()
	sys.Shutdown() // second shutdown is harmless
}
