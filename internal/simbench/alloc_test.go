package simbench

import (
	"runtime"
	"testing"

	"breakband/internal/config"
	"breakband/internal/fabric"
	"breakband/internal/fifo"
	"breakband/internal/memsim"
	"breakband/internal/mpi"
	"breakband/internal/node"
	"breakband/internal/perftest"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/topo"
	"breakband/internal/trace"
	"breakband/internal/uct"
	"breakband/internal/workload"
)

// deviceAllocBudget is the per-simulated-message allocation budget of the
// steady-state device datapath (PIO post -> PCIe -> NIC -> fabric -> remote
// PCIe -> CQE -> poll). The pooled TLP/DLLP/frame arenas, the closure-free
// kernel continuations and the scratch WQE/CQE decode make the marginal
// cost zero; the budget leaves headroom for amortized pool/trace growth.
const deviceAllocBudget = 8.0

// TestSchedulePathZeroAlloc pins the kernel schedule/fire hot path at zero
// allocations per event, for both the plain and the arg-carrying form.
func TestSchedulePathZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	fn := func() {}
	afn := func(any) {}
	arg := &struct{}{}
	// Warm the slot pool and the heap.
	for i := 0; i < 64; i++ {
		k.After(1, fn)
		k.AfterArg(1, afn, arg)
	}
	k.Run()
	if allocs := testing.AllocsPerRun(500, func() {
		k.After(1, fn)
		k.Run()
	}); allocs != 0 {
		t.Errorf("After/Run allocates %.2f per event, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		k.AfterArg(1, afn, arg)
		k.Run()
	}); allocs != 0 {
		t.Errorf("AfterArg/Run allocates %.2f per event, want 0", allocs)
	}
}

// TestReserveSettleZeroAlloc pins the reservation path at zero
// allocations: a chain of events each reserves a state change ahead of the
// clock, as a PCIe link reserves an UpdateFC arrival, and settles the
// earlier ones Due reports. Within one long Run the kernel keeps the
// reserved instants for its end clock in an array it reuses.
func TestReserveSettleZeroAlloc(t *testing.T) {
	const chain = 100
	k := sim.NewKernel()
	var q fifo.Queue[sim.Reservation]
	steps, settled := 0, 0
	var step func(any)
	step = func(any) {
		for q.Len() > 0 && k.Due(q.At(0)) {
			q.Pop()
			settled++
		}
		q.Push(k.Reserve(k.Now() + 3))
		if steps++; steps%chain != 0 {
			k.AfterArg(2, step, nil)
		}
	}
	cycle := func() {
		k.AfterArg(1, step, nil)
		k.Run()
	}
	for i := 0; i < 8; i++ { // warm the slot pool, the queue and the kernel's instants
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a chain of %d reserves and settles allocates %.2f, want 0", chain, allocs)
	}
	if settled != steps-q.Len() || q.Len() > 2 {
		t.Errorf("settled %d of %d reservations with %d left, want all but at most 2", settled, steps, q.Len())
	}
}

// TestEarlyEventZeroAlloc pins the early-event path at zero allocations:
// a chain of events each reserves an instant ahead of the clock and queues
// the event it stands for at once (AtFor), as a switch port reserves its
// txDone and queues the frame's arrival, and every other link lands a
// plain event on the guarded instant first, so the kernel demotes that
// early event to its fallback, which queues it again. The kernel's guards
// live in an array it reuses.
func TestEarlyEventZeroAlloc(t *testing.T) {
	const chain = 100
	k := sim.NewKernel()
	steps, arrived, fell := 0, 0, 0
	noop := func(any) {}
	arrive := func(any) { arrived++ }
	fallback := func(arg any) {
		fell++
		k.AfterArg(2, arrive, arg)
	}
	var step func(any)
	step = func(any) {
		r := k.Reserve(k.Now() + 1)
		k.AtFor(r, k.Now()+3, arrive, nil, fallback)
		if steps%2 == 1 {
			k.AtArg(k.Now()+3, noop, nil)
		}
		if steps++; steps%chain != 0 {
			k.AfterArg(2, step, nil)
		}
	}
	cycle := func() {
		k.AfterArg(1, step, nil)
		k.Run()
	}
	for i := 0; i < 8; i++ { // warm the slot pool, the guards and the kernel's instants
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a chain of %d early events, half of them demoted, allocates %.2f, want 0", chain, allocs)
	}
	if arrived != steps || fell != steps/2 {
		t.Errorf("%d of %d early events arrived and %d fell back, want all of them and half", arrived, steps, fell)
	}
}

// watchParkFrame parks its task on a memory write watch, forever: each
// wake re-arms the watch and parks again — the shape of a uct poll loop
// waiting on its completion slots.
type watchParkFrame struct {
	mem    *memsim.Memory
	addr   uint64
	t      *sim.Task
	unpark func()
}

func (f *watchParkFrame) Step(t *sim.Task) {
	f.t = t
	f.mem.Watch(f.addr, 8, wakeWatchPark, f)
	t.Park(f.unpark)
}

// wakeWatchPark is the watch callback: disarm, then wake the task now.
func wakeWatchPark(a any) {
	f := a.(*watchParkFrame)
	f.mem.Unwatch(f)
	f.t.WakeAt(f.t.Kernel().Now(), f.t.Kernel().Mark())
}

// TestParkWakeZeroAlloc pins the park/wake cycle at zero allocations: a
// write fires the watch, the callback disarms and wakes the task, and the
// task re-arms and parks again.
func TestParkWakeZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	mem := memsim.New(1 << 12)
	f := &watchParkFrame{mem: mem, addr: 64}
	f.unpark = func() { mem.Unwatch(f) }
	k.SpawnTask("parker", f)
	write := func(any) { mem.Write(64, []byte{1}) }
	// Warm the slot pool and the watch table.
	for i := 0; i < 8; i++ {
		k.AfterArg(1, write, nil)
		k.Run()
	}
	if allocs := testing.AllocsPerRun(500, func() {
		k.AfterArg(1, write, nil)
		k.Run()
	}); allocs != 0 {
		t.Errorf("park/wake allocates %.2f per cycle, want 0", allocs)
	}
	if mem.Watches() != 1 {
		t.Errorf("%d watches armed, want the parked task's one", mem.Watches())
	}
	k.Shutdown()
	if mem.Watches() != 0 {
		t.Errorf("Shutdown left %d watches armed", mem.Watches())
	}
}

// TestParkedWaitsZeroAlloc carries the park/wake gate through the wait
// loop of every layer: uct's and ucp's StartProgressUntil, MPI_Wait and
// MPI_Waitall, each under NoiseOff and NoiseOn waiting for something that
// never comes, so it parks on its empty completion queue. A cycle — a Wake
// from another event, which under NoiseOn draws the skipped rounds, the
// woken round's poll, the re-test and the park again — allocates nothing.
func TestParkedWaitsZeroAlloc(t *testing.T) {
	never := func() bool { return false }
	for _, noise := range []config.NoiseLevel{config.NoiseOff, config.NoiseOn} {
		parkedWaitsZeroAlloc(t, noise, never)
	}
}

func parkedWaitsZeroAlloc(t *testing.T, noise config.NoiseLevel, never func() bool) {
	for _, c := range []struct {
		name string
		wait func(r *mpi.Rank) simtest.Step
	}{
		{"uct", func(r *mpi.Rank) simtest.Step {
			return func(tk *sim.Task) { r.Worker.Uct.StartProgressUntil(tk, never) }
		}},
		{"ucp", func(r *mpi.Rank) simtest.Step {
			return func(tk *sim.Task) { r.Worker.StartProgressUntil(tk, never) }
		}},
		{"mpi-wait", func(r *mpi.Rank) simtest.Step {
			return func(tk *sim.Task) { r.StartWait(tk, r.Irecv(tk, 0, 1)) }
		}},
		{"mpi-waitall", func(r *mpi.Rank) simtest.Step {
			return func(tk *sim.Task) { r.StartWaitall(tk, []*mpi.Request{r.Irecv(tk, 0, 1)}) }
		}},
	} {
		sys := node.NewSystem(config.TX2CX4(noise, 1, true), 2)
		r := mpi.NewComm(sys.Nodes, sys.Cfg, uct.PIOInline).Ranks[1]
		task := simtest.Start(sys.K, c.name, c.wait(r))
		sys.Run()
		wake := func(any) { r.Worker.Uct.Wake() }
		cycle := func() {
			sys.K.AfterArg(1, wake, nil)
			sys.K.Run()
		}
		for i := 0; i < 8; i++ { // warm the slot pool and the watch table
			cycle()
		}
		allocs := testing.AllocsPerRun(500, cycle)
		if !task.Parked() || r.Worker.Uct.Stats.Progresses < 500 {
			t.Errorf("%s noise %d: parked %v after %d polls; want parked, woken once per cycle", c.name, noise, task.Parked(), r.Worker.Uct.Stats.Progresses)
		}
		if allocs != 0 {
			t.Errorf("%s noise %d: a wake, woken round and park allocate %.2f per cycle, want 0", c.name, noise, allocs)
		}
		sys.Shutdown()
	}
}

// mallocsForPutBw runs a fresh put_bw of the given length and reports the
// process-wide malloc count it consumed (setup included).
func mallocsForPutBw(noise config.NoiseLevel, iters int) float64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sys := node.NewSystem(config.TX2CX4(noise, 1, true), 2)
	perftest.PutBw(sys, perftest.Options{Iters: iters, Warmup: 64})
	sys.Shutdown()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// TestDevicePathAllocBudget asserts the marginal per-message allocation
// cost of the full device datapath. Comparing a long run against a short
// one on identical fresh systems cancels construction and warmup, leaving
// the steady-state per-message cost.
func TestDevicePathAllocBudget(t *testing.T) {
	const short, long = 256, 2048
	a1 := mallocsForPutBw(config.NoiseOff, short)
	a2 := mallocsForPutBw(config.NoiseOff, long)
	perMsg := (a2 - a1) / float64(long-short)
	if perMsg > deviceAllocBudget {
		t.Errorf("device path allocates %.2f per message, budget %.0f", perMsg, deviceAllocBudget)
	}
	t.Logf("device path: %.3f allocs/message (budget %.0f)", perMsg, deviceAllocBudget)
}

// TestNoisyDevicePathAllocBudget holds the NoiseOn device path, where every
// software cost is a draw through the rng.Dist interface, to the same
// budget: jitter must not buy per-message garbage.
func TestNoisyDevicePathAllocBudget(t *testing.T) {
	const short, long = 256, 2048
	a1 := mallocsForPutBw(config.NoiseOn, short)
	a2 := mallocsForPutBw(config.NoiseOn, long)
	perMsg := (a2 - a1) / float64(long-short)
	if perMsg > deviceAllocBudget {
		t.Errorf("noisy device path allocates %.2f per message, budget %.0f", perMsg, deviceAllocBudget)
	}
	t.Logf("noisy device path: %.3f allocs/message (budget %.0f)", perMsg, deviceAllocBudget)
}

// releasePort is the minimal fabric.Port: it hands every delivered frame
// straight back to the pool.
type releasePort struct{}

func (releasePort) RxFrame(f *fabric.Frame) { f.Release() }

// TestSwitchPathZeroAlloc pins the topology fabric's steady-state switch
// path at exactly zero allocations per frame-hop: pooled frames ride the
// kernel's pooled arg slots between per-link continuations bound at
// construction, and switch-port queues are reusable rings whose
// high-water mark the credit budget bounds. Measured under contention
// (four sources sharing one output port), after a warmup that grows every
// pool to its steady-state working set.
func TestSwitchPathZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	fab := topo.NewFabric(k, config.TX2CX4(config.NoiseOff, 1, true).Fabric, topo.Spec{Kind: topo.SingleSwitch}, 5)
	for i := 0; i < 5; i++ {
		fab.Attach(i, releasePort{})
	}
	send := func(src int) {
		f := fab.NewFrame()
		f.Kind = fabric.Data
		f.Src = src
		f.Dst = 0
		f.Bytes = 4096
		fab.Send(f)
	}
	// Warm the frame pool, the event pool and every port ring with a
	// contended burst.
	for r := 0; r < 32; r++ {
		for s := 1; s < 5; s++ {
			send(s)
		}
	}
	k.Run()
	// Each iteration pushes four contending frames across two hops each
	// (host egress + shared switch port) and drains them completely.
	if allocs := testing.AllocsPerRun(200, func() {
		for s := 1; s < 5; s++ {
			send(s)
		}
		k.Run()
	}); allocs != 0 {
		t.Errorf("contended switch path allocates %.2f per 4-frame round, want 0 per frame-hop", allocs)
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("%d frames leaked", fab.InUseFrames())
	}
}

// TestIncastDevicePathAllocBudget applies the end-to-end device budget to
// the contended 4-sender incast. The switch path itself is
// allocation-free (TestSwitchPathZeroAlloc); the residual marginal cost
// here is amortized pool growth on the receiver's PCIe link, whose pend
// queue legitimately deepens while the link is the modelled bottleneck of
// a saturating incast (4 KiB MWr credit round trips are slower than the
// wire's frame rate).
func TestIncastDevicePathAllocBudget(t *testing.T) {
	const senders = 4
	run := func(iters int) float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
		sys := node.NewSystem(cfg, senders+1)
		perftest.OversubscribedPutBw(sys, senders, perftest.Options{Iters: iters, Warmup: 64, MsgSize: 4096})
		sys.Shutdown()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs)
	}
	const short, long = 256, 2048
	a1 := run(short)
	a2 := run(long)
	perMsg := (a2 - a1) / float64((long-short)*senders)
	if perMsg > deviceAllocBudget {
		t.Errorf("incast device path allocates %.2f per message, budget %.0f", perMsg, deviceAllocBudget)
	}
	t.Logf("incast device path: %.3f allocs/message (budget %.0f)", perMsg, deviceAllocBudget)
}

// TestOversubscribedDevicePathAllocBudget extends the device budget to the
// RNR NAK / retry path: a bounded-receiver incast (rx budget below the
// link credits) continuously defers frame releases, emits NAKs, runs
// backoff timers and replays go-back-N windows. All of that must recycle —
// pooled NAK frames, the NIC's pend FIFO, the retransmit queue with
// reused payload buffers, and pooled timer events — so the marginal
// per-message cost stays inside the same budget as the uncontended path.
func TestOversubscribedDevicePathAllocBudget(t *testing.T) {
	const senders = 4
	run := func(iters int) float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
		cfg.NICRxBudget = 8
		sys := node.NewSystem(cfg, senders+1)
		res := perftest.OversubscribedPutBw(sys, senders, perftest.Options{Iters: iters, Warmup: 64, MsgSize: 4096})
		if res.RNRNaks == 0 {
			t.Fatal("scenario exercised no NAK/retry activity")
		}
		sys.Shutdown()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs)
	}
	const short, long = 256, 2048
	a1 := run(short)
	a2 := run(long)
	perMsg := (a2 - a1) / float64((long-short)*senders)
	if perMsg > deviceAllocBudget {
		t.Errorf("NAK/retry path allocates %.2f per message, budget %.0f", perMsg, deviceAllocBudget)
	}
	t.Logf("NAK/retry path: %.3f allocs/message (budget %.0f)", perMsg, deviceAllocBudget)
}

// TestWindowedDevicePathAllocBudget applies the same budget to the windowed
// pattern, which holds a full window of pooled descriptors in flight.
func TestWindowedDevicePathAllocBudget(t *testing.T) {
	run := func(iters int) float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sys := node.NewSystem(config.TX2CX4(config.NoiseOff, 1, true), 2)
		perftest.WindowedPutBw(sys, 32, iters)
		sys.Shutdown()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs)
	}
	const short, long = 320, 2240
	a1 := run(short)
	a2 := run(long)
	perMsg := (a2 - a1) / float64(long-short)
	if perMsg > deviceAllocBudget {
		t.Errorf("windowed device path allocates %.2f per message, budget %.0f", perMsg, deviceAllocBudget)
	}
	t.Logf("windowed device path: %.3f allocs/message (budget %.0f)", perMsg, deviceAllocBudget)
}

// TestLossyRetransmitAllocBudget applies the device budget to the lossy
// transport path: Bernoulli drops and corruptions force ACK timeouts,
// sequence NAKs and go-back-N replays, all of which must run on pooled
// frames and the per-QP recycled timer event — loss recovery is steady
// state for this subsystem, not an exceptional slow path.
func TestLossyRetransmitAllocBudget(t *testing.T) {
	run := func(iters int) float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		cfg.Faults.DropRate = 5e-3
		cfg.Faults.CorruptRate = 5e-3
		sys := node.NewSystem(cfg, 2)
		res := perftest.LossyPutBw(sys, perftest.Options{Iters: iters, MsgSize: 32})
		if res.Err != nil || res.SenderStats.Retransmits == 0 {
			t.Fatalf("scenario exercised no loss recovery: %v", res)
		}
		sys.Shutdown()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs)
	}
	const short, long = 512, 4096
	a1 := run(short)
	a2 := run(long)
	perMsg := (a2 - a1) / float64(long-short)
	if perMsg > deviceAllocBudget {
		t.Errorf("lossy retransmit path allocates %.2f per message, budget %.0f", perMsg, deviceAllocBudget)
	}
	t.Logf("lossy retransmit path: %.3f allocs/message (budget %.0f)", perMsg, deviceAllocBudget)
}

// TestWorkloadInjectAllocBudget applies the device budget to the workload
// injection path: open-loop arrival generation (per-client clocks, the
// min-heap, size draws) plus the full device datapath per message. The
// generation machinery is itself allocation-free (workload's own zero-alloc
// gate); the marginal cost here must stay inside the same budget as the
// hand-written scenarios.
func TestWorkloadInjectAllocBudget(t *testing.T) {
	run := func(n int) (float64, int) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		spec := benchWorkloadSpec(n)
		sys := node.NewSystem(spec.BuildConfig(config.NoiseOff, 1), spec.Nodes)
		res, err := workload.Run(spec, sys, workload.RunOpt{})
		if err != nil {
			t.Fatal(err)
		}
		sys.Shutdown()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs), res.Cohorts[0].Delivered
	}
	const short, long = 512, 4096
	a1, n1 := run(short)
	a2, n2 := run(long)
	if n2 <= n1 {
		t.Fatalf("long run delivered %d <= short run's %d", n2, n1)
	}
	perMsg := (a2 - a1) / float64(n2-n1)
	if perMsg > deviceAllocBudget {
		t.Errorf("workload injection path allocates %.2f per message, budget %.0f", perMsg, deviceAllocBudget)
	}
	t.Logf("workload injection path: %.3f allocs/message (budget %.0f)", perMsg, deviceAllocBudget)
}

// tracedAllocBudget is the per-message allocation budget of the device
// datapath with event tracing ENABLED. The tracer's ring is allocated once
// at construction and overwrite never grows it, port names are interned at
// fabric build time, and every emit site writes a value event into the
// preallocated ring — so turning tracing on must not move the marginal
// per-message cost at all: the budget is the same as the untraced path.
const tracedAllocBudget = deviceAllocBudget

// TestTracerEmitZeroAlloc pins Tracer.Emit at zero allocations per event,
// including after the ring has wrapped: overwrite recycles slots, it never
// grows the buffer.
func TestTracerEmitZeroAlloc(t *testing.T) {
	tr := trace.New(1024)
	e := trace.Event{Kind: trace.EvQueue, TID: 1}
	for i := 0; i < 2048; i++ {
		tr.Emit(e)
	}
	if allocs := testing.AllocsPerRun(1000, func() { tr.Emit(e) }); allocs != 0 {
		t.Errorf("Emit allocates %.2f per event on a wrapped ring, want 0", allocs)
	}
}

// TestTracedSwitchPathZeroAlloc re-runs the contended switch path with the
// kernel tracer installed and frames TID-stamped: every hop now records
// route/queue/stall/txstart/deliver events, and the steady-state cost must
// stay exactly zero allocations per frame-hop — emits are value writes into
// the construction-time ring.
func TestTracedSwitchPathZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	tr := trace.New(1 << 12)
	k.SetTracer(tr)
	fab := topo.NewFabric(k, config.TX2CX4(config.NoiseOff, 1, true).Fabric, topo.Spec{Kind: topo.SingleSwitch}, 5)
	for i := 0; i < 5; i++ {
		fab.Attach(i, releasePort{})
	}
	send := func(src int) {
		f := fab.NewFrame()
		f.Kind = fabric.Data
		f.Src = src
		f.Dst = 0
		f.Bytes = 4096
		f.TID = tr.NextTID()
		fab.Send(f)
	}
	for r := 0; r < 32; r++ {
		for s := 1; s < 5; s++ {
			send(s)
		}
	}
	k.Run()
	if allocs := testing.AllocsPerRun(200, func() {
		for s := 1; s < 5; s++ {
			send(s)
		}
		k.Run()
	}); allocs != 0 {
		t.Errorf("traced switch path allocates %.2f per 4-frame round, want 0 per frame-hop", allocs)
	}
	if tr.Emitted() == 0 {
		t.Fatal("tracer recorded nothing; the gate is not exercising emits")
	}
}

// TestTracedDevicePathAllocBudget runs the full put_bw datapath with
// tracing enabled and asserts the marginal per-message cost stays inside
// the same budget as the untraced device path (TestDevicePathAllocBudget):
// enabling observability must not buy per-message garbage.
func TestTracedDevicePathAllocBudget(t *testing.T) {
	run := func(iters int) float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		cfg.TraceCapacity = 1 << 15
		sys := node.NewSystem(cfg, 2)
		perftest.PutBw(sys, perftest.Options{Iters: iters, Warmup: 64})
		if sys.Tracer() == nil || sys.Tracer().Emitted() == 0 {
			t.Fatal("tracing did not capture anything")
		}
		sys.Shutdown()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs)
	}
	const short, long = 256, 2048
	a1 := run(short)
	a2 := run(long)
	perMsg := (a2 - a1) / float64(long-short)
	if perMsg > tracedAllocBudget {
		t.Errorf("traced device path allocates %.2f per message, budget %.0f", perMsg, tracedAllocBudget)
	}
	t.Logf("traced device path: %.3f allocs/message (budget %.0f)", perMsg, tracedAllocBudget)
}
