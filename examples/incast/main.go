// Incast: watch a shared switch port congest.
//
// Four senders funnel 4 KiB RDMA writes into node 0 over a single-switch
// topology (internal/topo). Every flow crosses the receiver's downlink
// port, whose store-and-forward serialization queue is the hotspot: this
// example taps the fabric's queue-depth trace (per-port depth over time),
// renders the hotspot's occupancy as an ASCII strip chart, and prints the
// per-port congestion counters — queueing at the shared port, credit
// backpressure at the sender egresses.
//
//	go run ./examples/incast
package main

import (
	"fmt"
	"strings"

	"breakband/internal/config"
	"breakband/internal/fabric"
	"breakband/internal/node"
	"breakband/internal/perftest"
	"breakband/internal/topo"
	"breakband/internal/units"
)

// sample is one queue-depth observation of the watched port.
type sample struct {
	at    units.Time
	depth int
}

func main() {
	const (
		senders = 4
		msgSize = 4096
		hotPort = "sw0.port0" // the receiver's downlink
	)
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
	sys := node.NewSystem(cfg, senders+1)
	defer sys.Shutdown()

	var trace []sample
	sys.Topo().OnDepth = func(at units.Time, port string, depth int) {
		if port == hotPort {
			trace = append(trace, sample{at, depth})
		}
	}

	res := perftest.OversubscribedPutBw(sys, senders, perftest.Options{
		Iters: 400, Warmup: 250, MsgSize: msgSize,
	})
	fmt.Println(res)
	fmt.Println()

	fmt.Printf("== %s queue depth over time ==\n", hotPort)
	fmt.Println(depthChart(trace, 64, 12))
	fmt.Println("The ramp is the senders' send queues filling; the plateau is the")
	fmt.Println("steady state. For 4 KiB writes the receiver's PCIe credit round")
	fmt.Printf("trip (%.2fns per MWr) is slower than the port's %v wire\n",
		perftest.PCIeWriteCycle(cfg, msgSize).Ns(), fabric.SerTime(msgSize))
	fmt.Println("serialization, so the receiving NIC holds delivered frames until")
	fmt.Println("their host writes issue, final-hop credits stay pinned, and the")
	fmt.Println("queue sits at the credit ceiling while backpressure paces every")
	fmt.Println("sender at the PCIe drain rate.")
	fmt.Println()

	fmt.Println("== congested ports ==")
	fmt.Print(sys.Topo().FormatHotPorts())
}

// depthChart renders the depth samples as a cols x rows strip chart: each
// column is a time bucket showing the bucket's maximum queue depth.
func depthChart(trace []sample, cols, rows int) string {
	if len(trace) == 0 {
		return "(no samples)"
	}
	t0, t1 := trace[0].at, trace[len(trace)-1].at
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	depth := make([]int, cols)
	maxDepth := 0
	for _, s := range trace {
		c := int(int64(s.at-t0) * int64(cols-1) / int64(span))
		if s.depth > depth[c] {
			depth[c] = s.depth
		}
		if s.depth > maxDepth {
			maxDepth = s.depth
		}
	}
	if maxDepth == 0 {
		maxDepth = 1
	}
	var b strings.Builder
	for r := rows; r >= 1; r-- {
		threshold := maxDepth * r / rows
		fmt.Fprintf(&b, "%4d |", threshold)
		for _, d := range depth {
			if d >= threshold && threshold > 0 {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "     +%s\n", strings.Repeat("-", cols))
	fmt.Fprintf(&b, "      %-*s%s\n", cols-len(t1.String()), t0.String(), t1.String())
	return b.String()
}
