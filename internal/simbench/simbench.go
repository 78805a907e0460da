// Package simbench holds the kernel microbenchmark bodies shared by the
// `go test -bench` wrappers in internal/sim and the BENCH_kernel.json emitter
// in cmd/bbbench. Keeping the bodies in a normal (non-test) package lets the
// command run the exact benchmarks CI smokes, via testing.Benchmark, so the
// recorded perf trajectory and the test-suite benchmarks can never diverge.
package simbench

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/perftest"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/units"
	"breakband/internal/workload"
)

// scheduleWidth is how many self-rescheduling event chains BenchmarkSchedule
// keeps in flight, so the heap holds a realistic working set while events
// recycle through the pool.
const scheduleWidth = 64

// Schedule measures the kernel's schedule+fire hot path: b.N events flow
// through At/Run with a steady-state queue of scheduleWidth, exercising pool
// reuse rather than unbounded heap growth. The schedule path must be
// zero-allocation: the closure is shared, so every At costs only a pooled
// slot and a heap entry.
func Schedule(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	fired := 0
	var reschedule func()
	reschedule = func() {
		fired++
		if fired+scheduleWidth <= b.N {
			k.After(1, reschedule)
		}
	}
	b.ResetTimer()
	for i := 0; i < scheduleWidth && i < b.N; i++ {
		k.After(1, reschedule)
	}
	k.Run()
	b.StopTimer()
	reportEvents(b, float64(fired))
}

// stepLoopFrame runs one Advance+Pause suspend/resume round trip per
// iteration.
type stepLoopFrame struct {
	pc, i, n int
}

func (f *stepLoopFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			if f.i >= f.n {
				t.Return()
				return
			}
			t.Advance(1)
			f.pc = 1
			if t.Pause() {
				return
			}
		case 1:
			f.i++
			f.pc = 0
		}
	}
}

// HandoffFreeStep measures the task suspend/resume round trip: one pooled
// kernel event per Pause and zero allocations.
func HandoffFreeStep(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	f := &stepLoopFrame{n: b.N}
	k.SpawnTask("stepper", f)
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
	reportEvents(b, float64(b.N))
}

// pauseOnceFrame advances one tick, pauses once, and returns to its caller.
type pauseOnceFrame struct{ pc int }

func (f *pauseOnceFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			t.Advance(1)
			f.pc = 1
			if t.Pause() {
				return
			}
		case 1:
			t.Return()
			return
		}
	}
}

// callLoopFrame pushes a preallocated sub-frame per iteration, measuring the
// Call/Return activation discipline the layered stack (osu→mpi→ucp→uct)
// uses on every operation.
type callLoopFrame struct {
	pc, i, n int
	sub      pauseOnceFrame
}

func (f *callLoopFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			if f.i >= f.n {
				t.Return()
				return
			}
			f.pc = 1
			f.sub.pc = 0
			t.Call(&f.sub)
			return
		case 1:
			f.i++
			f.pc = 0
		}
	}
}

// HandoffFreeCall measures one sub-frame Call/Return round trip per op (with
// one pause inside the callee), the pattern every layered Start* API runs.
// Like the whole migrated hot path it must stay allocation-free: frames are
// preallocated by their owners and reused.
func HandoffFreeCall(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	k.SpawnTask("caller", &callLoopFrame{n: b.N})
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
	reportEvents(b, float64(b.N))
}

// PutBwEndToEnd measures the whole stack: b.N RDMA-write injections through
// uct over the calibrated NoiseOff system, including the PCIe/NIC/fabric
// event chains and completion polling. This is the number the measurement
// campaign's wall clock follows.
func PutBwEndToEnd(b *testing.B) { putBw(b, config.NoiseOff) }

// NoisyPutBw is PutBwEndToEnd over the NoiseOn system: every software cost
// is a lognormal draw, plus the rare preemption spike. The measurement
// campaign runs with noise, and these draws are most of its host time.
func NoisyPutBw(b *testing.B) { putBw(b, config.NoiseOn) }

func putBw(b *testing.B, noise config.NoiseLevel) {
	b.ReportAllocs()
	sys := node.NewSystem(config.TX2CX4(noise, 1, true), 2)
	defer sys.Shutdown()
	b.ResetTimer()
	res := perftest.PutBw(sys, perftest.Options{Iters: b.N, Warmup: 16})
	b.StopTimer()
	if res.Messages != b.N {
		b.Fatalf("put_bw ran %d messages, want %d", res.Messages, b.N)
	}
	reportEvents(b, float64(sys.K.Fired()))
}

// WindowedPutBw measures the windowed device path: post a window of RDMA
// writes, then poll the window's completions before reusing it (the access
// pattern behind the paper's §4.2 p >= gen_completion / LLP_post bound).
// Compared to PutBwEndToEnd's poll-every-16 pattern it keeps the full
// window in flight, so the pooled TLP/frame arenas see their deepest
// steady-state working set.
func WindowedPutBw(b *testing.B) {
	b.ReportAllocs()
	sys := node.NewSystem(config.TX2CX4(config.NoiseOff, 1, true), 2)
	defer sys.Shutdown()
	window := 32
	if b.N < window {
		window = b.N
	}
	b.ResetTimer()
	res := perftest.WindowedPutBw(sys, window, b.N)
	b.StopTimer()
	if res.PerMsgNs <= 0 {
		b.Fatalf("windowed put_bw reported %v ns/msg", res.PerMsgNs)
	}
	reportEvents(b, float64(sys.K.Fired()))
}

// IncastPutBw measures the contended switch path: four senders funnel
// 4 KiB buffered-copy writes through one receiver downlink port of a
// 5-node single-switch topology (internal/topo), exercising the
// store-and-forward queues and credit flow control under saturation. It
// runs perftest.OversubscribedPutBw with no rx budget. b.N counts
// delivered messages across all senders.
func IncastPutBw(b *testing.B) {
	b.ReportAllocs()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
	sys := node.NewSystem(cfg, 5)
	defer sys.Shutdown()
	const senders = 4
	iters := (b.N + senders - 1) / senders
	b.ResetTimer()
	res := perftest.OversubscribedPutBw(sys, senders, perftest.Options{Iters: iters, Warmup: 16, MsgSize: 4096})
	b.StopTimer()
	if res.Messages != senders*iters {
		b.Fatalf("incast ran %d messages, want %d", res.Messages, senders*iters)
	}
	reportEvents(b, float64(sys.K.Fired()))
}

// OversubscribedPutBw measures the receiver-overload path with bounded rx
// buffering: the IncastPutBw shape against an rx budget (8) below the
// per-link fabric credits, so the run continuously exercises deferred
// frame release, RNR NAK emission, sender backoff timers and go-back-N
// replay on top of the contended switch path. b.N counts delivered
// messages across all senders.
func OversubscribedPutBw(b *testing.B) {
	b.ReportAllocs()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
	cfg.NICRxBudget = 8
	sys := node.NewSystem(cfg, 5)
	defer sys.Shutdown()
	const senders = 4
	iters := (b.N + senders - 1) / senders
	b.ResetTimer()
	res := perftest.OversubscribedPutBw(sys, senders, perftest.Options{Iters: iters, Warmup: 16, MsgSize: 4096})
	b.StopTimer()
	if res.Messages != senders*iters {
		b.Fatalf("oversubscribed incast ran %d messages, want %d", res.Messages, senders*iters)
	}
	reportEvents(b, float64(sys.K.Fired()))
}

// benchWorkloadSpec compiles the canonical open-loop Poisson incast sized to
// an expected n arrivals: 64 clients on seven source nodes of the 8-node
// fat-tree, 64-byte puts into node 0.
func benchWorkloadSpec(n int) *workload.Spec {
	const clients, rate = 64, 40e3
	aggPs := clients * rate / float64(units.Second) // arrivals per picosecond
	return &workload.Spec{
		Name:     "bench",
		Nodes:    8,
		Topology: "fattree",
		Cohorts: []workload.Cohort{{
			Name:     "storm",
			Clients:  clients,
			Src:      []int{1, 2, 3, 4, 5, 6, 7},
			Dst:      []int{0},
			Duration: units.Time(float64(n)/aggPs) + 1,
			Arrival:  workload.ArrivalSpec{Process: workload.ProcPoisson, Rate: rate},
			Size:     workload.SizeSpec{Dist: workload.SizeDistFixed, Bytes: 64},
		}},
	}
}

// WorkloadInject measures the declarative-workload injection path end to end:
// an open-loop Poisson incast compiled from a workload spec — per-client
// arrival clocks, the min-heap scheduler, paced continuation injectors and
// completion rings — over the 8-node fat-tree. b.N sizes the cohort horizon
// to b.N expected arrivals.
func WorkloadInject(b *testing.B) {
	b.ReportAllocs()
	spec := benchWorkloadSpec(b.N)
	sys := node.NewSystem(spec.BuildConfig(config.NoiseOff, 1), spec.Nodes)
	defer sys.Shutdown()
	b.ResetTimer()
	res, err := workload.Run(spec, sys, workload.RunOpt{})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Cohorts[0].Delivered == 0 {
		b.Fatal("workload delivered nothing")
	}
	reportEvents(b, float64(sys.K.Fired()))
}

// reportEvents attaches the kernel events the run fired as two custom
// metrics: events/sec and events/op.
func reportEvents(b *testing.B, events float64) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(events/sec, "events/sec")
	}
	b.ReportMetric(events/float64(b.N), "events/op")
}
