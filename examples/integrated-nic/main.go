// Integrated NIC: model the paper's §7.1 headline optimization.
//
// "The idea of this optimization is that the NIC sits on the same die as
// that of the processor" — eliminating most of the I/O subsystem. Tofu-D on
// post-K improved RDMA-write latency by nearly 400 ns this way. This example
// builds such a system by shrinking the PCIe path and the RC commit latency,
// then compares latency and its breakdown against the baseline.
//
//	go run ./examples/integrated-nic
package main

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/osu"
	"breakband/internal/perftest"
	"breakband/internal/units"
)

func main() {
	baseline := config.TX2CX4(config.NoiseOff, 1, true)

	// The integrated design: the NIC hangs off the network-on-chip. The
	// die-to-die hop replaces the PCIe slot (a few ns), and the
	// coherent-fabric write replaces the RC's long commit path.
	integrated := config.TX2CX4(config.NoiseOff, 1, true)
	integrated.PCIeProp = units.Nanoseconds(10)
	integrated.RCToMemBase = units.Nanoseconds(60)

	run := func(name string, cfg *config.Config) (float64, float64) {
		sysA := node.NewSystem(cfg, 2)
		lat := perftest.AmLat(sysA, perftest.Options{Iters: 600}).AdjustedNs
		sysA.Shutdown()
		sysB := node.NewSystem(cfg, 2)
		e2e := osu.Latency(sysB, osu.Options{Iters: 600}).ReportedNs
		sysB.Shutdown()
		fmt.Printf("%-12s LLP latency %8.2f ns   MPI latency %8.2f ns\n", name, lat, e2e)
		return lat, e2e
	}

	fmt.Println("== SoC-integrated NIC vs PCIe-attached NIC ==")
	baseLat, baseE2E := run("baseline", baseline)
	intLat, intE2E := run("integrated", integrated)

	fmt.Printf("\nImprovement: %.0f ns at the LLP (%.1f%%), %.0f ns end to end (%.1f%%).\n",
		baseLat-intLat, (baseLat-intLat)/baseLat*100,
		baseE2E-intE2E, (baseE2E-intE2E)/baseE2E*100)
	fmt.Println("The paper cites Tofu-D improving RDMA-write latency by nearly 400 ns")
	fmt.Println("through exactly this integration; the simulated gain is the same order.")
}
