// Saturation: find the knee of a fat-tree incast and explain it.
//
// Five senders on a two-tier fat-tree aim 4 KiB RDMA writes at node 0 while
// the offered load steps across the predicted bottleneck — the slower of
// the receiver downlink's wire serialization and its PCIe write cycle
// (which gates the final hop's credit loop even without an rx budget). The
// sweep (perftest.SaturationSweep) runs each load step on a fresh traced
// system, as one periodic cohort of the workload injector, and reports
// delivered vs offered rate, the hot port's utilization and queue-depth
// percentiles, and the per-layer stall shares from trace attribution. The
// walkthrough then renders the knee curve as an ASCII chart and deep-dives
// one saturating closed-loop run with the full stall-attribution table,
// whose components must sum exactly to the measured latency (the
// conservation invariant the tests pin).
//
//	go run ./examples/saturation
package main

import (
	"fmt"
	"strings"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/perftest"
	"breakband/internal/topo"
)

const (
	nodes   = 6
	msgSize = 4096
	iters   = 500 // messages per sender at each load step
)

func mkSys() *node.System {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.FatTree}
	// The tracer rides the kernel; every layer emits lifecycle and
	// decision events into its ring, feeding the stall shares below.
	cfg.TraceCapacity = 1 << 20
	return node.NewSystem(cfg, nodes)
}

func main() {
	loads := []float64{0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.5}

	fmt.Println("== load sweep across the predicted bottleneck ==")
	res := perftest.SaturationSweep(mkSys, 0, loads, msgSize, iters, 0)
	fmt.Print(res.Format())
	fmt.Println()

	fmt.Println("== knee curve (delivered rate vs offered load) ==")
	fmt.Print(kneeChart(res, 48))
	fmt.Println()
	fmt.Println("Below the knee the fabric delivers what is offered and latency is")
	fmt.Println("flat. Past it, delivery clamps to the bottleneck's service rate and")
	fmt.Println("every extra offered message becomes switch-port queueing — watch the")
	fmt.Println("queue share and the hot port's p99 depth jump at the starred row.")
	fmt.Println()

	fmt.Println("== deep dive: stall attribution of a saturating closed-loop incast ==")
	sys := mkSys()
	defer sys.Shutdown()
	ires := perftest.OversubscribedPutBw(sys, 0, perftest.Options{Iters: 400, Warmup: 100, MsgSize: msgSize})
	fmt.Println(ires)
	rep := perftest.StallReport(sys)
	fmt.Print(rep.Format())
	fmt.Println()
	fmt.Println("The components are disjoint and sum to the measured latency (zero")
	fmt.Println("residual): the ideal share is the calibrated uncontended path, the")
	fmt.Println("rest is congestion — mostly queueing at the receiver's leaf downlink,")
	fmt.Println("plus the PCIe pend the deferred frame release exposes.")
}

// kneeChart renders delivered (#) against offered (.) message rate per
// load step, both scaled to the largest offered rate.
func kneeChart(r *perftest.SaturationResult, width int) string {
	maxOff := r.Points[len(r.Points)-1].Offered
	var b strings.Builder
	for i := range r.Points {
		p := &r.Points[i]
		del := int(p.Delivered / maxOff * float64(width))
		off := int(p.Offered / maxOff * float64(width))
		mark := " "
		if i == r.KneeIndex {
			mark = "*"
		}
		bar := strings.Repeat("#", del)
		if off > del {
			bar += strings.Repeat(".", off-del)
		}
		fmt.Fprintf(&b, "%s %4.2f |%-*s| %.2f Mmsg/s\n", mark, p.Load, width, bar, p.Delivered/1e6)
	}
	return b.String()
}
