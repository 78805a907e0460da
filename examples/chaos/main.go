// Chaos: endpoint failures, error propagation, and stall attribution.
//
// Part 1 runs one seed of the chaos soak: a derived schedule of wire
// loss, link flaps, NIC crashes and host pauses over an 8-node fat-tree
// carrying sequence-verified pair streams. Every request terminates —
// survivors at full delivery, victims with transport errors — and the
// report attributes each node's faults and each pair's outcome.
//
// Part 2 shows what the kernel's quiescence watchdog buys when error
// propagation is NOT wired up: a receiver waiting on a crashed peer with
// no failure detector blocks forever, and Kernel.StallReport names the
// blocked task and the frame it is paused in — stall attribution instead
// of a silent hang.
//
//	go run ./examples/chaos
package main

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/faults"
	"breakband/internal/mpi"
	"breakband/internal/node"
	"breakband/internal/perftest"
	"breakband/internal/sim"
	"breakband/internal/uct"
	"breakband/internal/units"
)

func main() {
	// --- Part 1: the seeded soak ---
	const seed = 1
	fmt.Println("== Chaos soak, seed 1 ==")
	res := perftest.ChaosSoak(config.TX2CX4(config.NoiseOff, seed, true), seed, perftest.ChaosOptions{})
	fmt.Println(res)
	fmt.Println("Reproduce this exact run (the schedule is a pure function of the seed):")
	fmt.Println("  go run ./cmd/bbperftest -seed 1 -seeds 1 chaos")
	fmt.Println("  go test -run TestChaosSoakSingle -v ./internal/perftest")
	fmt.Println()

	// --- Part 2: the deliberately-stuck scenario ---
	fmt.Println("== Watchdog stall attribution ==")
	fmt.Println("Node 1 crashes at 5us; node 0 waits for a message from it with no")
	fmt.Println("failure detector and no deadline. The receive can never match and")
	fmt.Println("nothing ever errors node 0's endpoint, so the wait polls forever.")
	fmt.Println("A bounded run plus StallReport turns that into attribution:")
	fmt.Println()

	cfg := config.TX2CX4(config.NoiseOff, seed, true)
	cfg.SignalPeriod = 1
	cfg.Faults.Crashes = []faults.Crash{{Node: 1, At: units.Microseconds(5)}}
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	comm := mpi.NewComm(sys.Nodes[:2], cfg, uct.PIOInline)

	sys.K.SpawnTask("app.recv-from-dead-peer", &stuckRecvFrame{r: comm.Ranks[0]})
	sys.K.RunUntil(units.Microseconds(2000))

	fmt.Print(sys.K.StallReport())
	fmt.Println()
	fmt.Println("The chaos soak never trips this: its heartbeat probe drives the")
	fmt.Println("transport to retry exhaustion, the endpoint error cancels the")
	fmt.Println("receive (mpi.Rank.CheckFailed), and an absolute deadline backstops")
	fmt.Println("the detector itself.")
}

// stuckRecvFrame posts receive credits and blocks on a message from rank 1
// — which is dead. Deliberately never terminates.
type stuckRecvFrame struct {
	pc int
	r  *mpi.Rank
}

func (f *stuckRecvFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.r.StartPreparePostedRecvs(t, 16)
			return
		case 1:
			f.pc = 2
			f.r.StartRecv(t, 1, 1)
			return
		case 2:
			t.Return()
			return
		}
	}
}
