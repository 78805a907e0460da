// Tracing: the paper's measurement methodology, step by step.
//
// This example drives the internal benchmarks directly and derives the
// hardware component times from the PCIe analyzer trace exactly as §4
// describes: PCIe from TLP->ACK round trips, Network from ping->completion
// deltas, the Switch by differencing topologies, and RC-to-MEM(8B) from the
// Figure-9 pong->ping window.
//
//	go run ./examples/tracing
package main

import (
	"fmt"

	"breakband/internal/analyzer"
	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/pcie"
	"breakband/internal/perftest"
)

func main() {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)

	// --- Step 1: put_bw and the injection overhead (Figures 6 and 7) ---
	sys := node.NewSystem(cfg, 2)
	tap := sys.Nodes[0].AttachTap()
	perftest.PutBw(sys, perftest.Options{Iters: 1000, Warmup: 300})

	fmt.Println("Step 1: the analyzer sits just before node 0's NIC (paper Figure 3).")
	fmt.Println("Downstream 64-byte MWr transactions are the PIO posts; their deltas")
	fmt.Println("are the injection overhead the NIC observes:")
	down := tap.TLPs(pcie.Down, pcie.MWr, 64, 64)
	deltas := analyzer.Deltas(down).Summarize()
	fmt.Printf("  n=%d mean=%.2f ns (paper model: 295.73 ns)\n\n", deltas.N, deltas.Mean)

	// --- Step 2: PCIe from the completion DMA-writes and their ACKs ---
	rt := tap.AckRoundTrips(pcie.Up, pcie.MWr)
	fmt.Println("Step 2: each upstream completion MWr is matched with its ACK DLLP")
	fmt.Printf("from the RC; half the round trip is PCIe:\n  PCIe = %.2f ns (paper: 137.49)\n\n", rt.Mean())
	sys.Shutdown()

	// --- Step 3: Network from am_lat, with and without the switch ---
	netMean := func(useSwitch bool) float64 {
		c := config.TX2CX4(config.NoiseOff, 1, useSwitch)
		s := node.NewSystem(c, 2)
		defer s.Shutdown()
		tap := s.Nodes[0].AttachTap()
		perftest.AmLat(s, perftest.Options{Iters: 400, Warmup: 50})
		d := tap.PairDeltas(
			func(r analyzer.Record) bool {
				return r.IsTLP && r.Dir == pcie.Down && r.TLPType == pcie.MWr && r.Payload == 64
			},
			func(r analyzer.Record) bool {
				return r.IsTLP && r.Dir == pcie.Up && r.TLPType == pcie.MWr && r.Payload == 64
			},
		)
		return d.Mean() / 2
	}
	wire := netMean(false)
	network := netMean(true)
	fmt.Println("Step 3: a downstream ping and the next upstream completion bracket two")
	fmt.Println("network traversals; measuring both topologies isolates the switch:")
	fmt.Printf("  Wire = %.2f ns (paper: 274.81), Switch = %.2f ns (paper: 108)\n\n", wire, network-wire)

	// --- Step 4: RC-to-MEM(8B) from the pong->ping window (Figure 9) ---
	sys2 := node.NewSystem(cfg, 2)
	tap2 := sys2.Nodes[0].AttachTap()
	res := perftest.AmLat(sys2, perftest.Options{Iters: 400, Warmup: 50})
	rcq := res.Ep0.QP().RecvCQ.Region
	pongPing := tap2.PairDeltas(
		func(r analyzer.Record) bool {
			return r.IsTLP && r.Dir == pcie.Up && r.TLPType == pcie.MWr && rcq.Contains(r.Addr, r.Payload)
		},
		func(r analyzer.Record) bool {
			return r.IsTLP && r.Dir == pcie.Down && r.TLPType == pcie.MWr && r.Payload == 64
		},
	)
	// delta = RC-to-MEM(8B) + 2*PCIe + LLP_prog + LLP_post (Figure 9);
	// plug in the calibrated software means for the last two.
	rcToMem := pongPing.Mean() - 2*rt.Mean() - config.TabLLPProg - config.TabLLPPost
	fmt.Println("Step 4: the inbound-pong to outbound-ping delta (Figure 9) contains")
	fmt.Println("RC-to-MEM + 2 PCIe + LLP_prog + LLP_post; solving:")
	fmt.Printf("  RC-to-MEM(8B) = %.2f ns (paper: 240.96)\n\n", rcToMem)
	sys2.Shutdown()

	fmt.Println("Step 5: a raw trace snippet (paper Figure 6):")
	fmt.Print(tap2.FormatTrace(10))
}
