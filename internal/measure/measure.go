// Package measure re-executes the paper's measurement methodology inside
// the simulation and produces the measured Components table (the
// reproduction of Table 1) plus the observed benchmark values the models
// are validated against.
//
// Methodology rules from §3 are honoured:
//
//   - The profiling infrastructure is calibrated with empty scopes and its
//     mean overhead is subtracted from every measurement.
//   - Only one component is measured per run ("we do not simultaneously
//     measure time in any other component"); each sub-measurement below
//     builds a fresh system, and a timed one selects its single scope on
//     node 0's profiler before its workload runs (scopedTasks).
//   - Each reported value is a mean of at least 100 samples.
//   - Hardware components (PCIe, Wire, Switch, RC-to-MEM) are derived from
//     PCIe-analyzer trace deltas, never from software timers.
//
// Because every sub-measurement owns a fresh system, the campaign is a set
// of independent tasks: Run fans them out on a bounded worker pool
// (internal/campaign) and assembles the component table from the task
// slots afterwards. Each task's noise seed is derived from the campaign
// seed and the task name (rng.DeriveSeed), so a parallel campaign is
// bit-identical to a serial one at the same seed, whatever the pool width.
package measure

import (
	"fmt"

	"breakband/internal/analyzer"
	"breakband/internal/campaign"
	"breakband/internal/config"
	"breakband/internal/core/model"
	"breakband/internal/mpi"
	"breakband/internal/node"
	"breakband/internal/osu"
	"breakband/internal/pcie"
	"breakband/internal/perftest"
	"breakband/internal/profile"
	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/stats"
	"breakband/internal/topo"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// Observed collects the benchmark-level observations of §4 and §6.
type Observed struct {
	// LLPInjection summarizes the PCIe-analyzer deltas of consecutive
	// downstream PIO posts during put_bw (Figure 7's distribution; its
	// mean is §4.2's observed injection overhead).
	LLPInjection stats.Summary
	// LLPLatencyNs is am_lat's reported latency after deducting half a
	// measurement update (§4.3).
	LLPLatencyNs float64
	// OverallInjectionNs is the inverse of the OSU message rate (§6).
	OverallInjectionNs float64
	// E2ELatencyNs is the OSU point-to-point latency (§6).
	E2ELatencyNs float64
}

// Result is the full measurement campaign outcome.
type Result struct {
	Components    model.Components
	Observed      Observed
	CalibrationNs stats.Summary
	// BusyPerOp is the tracked §6 busy-post rate in the message-rate
	// window.
	BusyPerOp float64
	// Extra holds methodology diagnostics (keyed free-form, reported in
	// EXPERIMENTS.md).
	Extra map[string]float64
}

// Opts sizes the campaign.
type Opts struct {
	// Samples is the per-component sample target (>= 100 per the paper).
	Samples int
	// Windows is the message-rate window count.
	Windows int
	// Parallelism bounds the campaign's worker pool. Zero (or negative)
	// selects runtime.GOMAXPROCS(0); 1 forces serial execution. The pool
	// width never changes results: every task runs on its own freshly
	// built system with a task-derived random stream.
	Parallelism int
}

// DefaultOpts returns the standard campaign sizing.
func DefaultOpts() Opts { return Opts{Samples: 400, Windows: 20} }

// Run executes the full methodology. mk must return a fresh, identically
// configured Config on every call (one per experiment run) and must be safe
// to call concurrently: tasks fan out on Opts.Parallelism workers.
func Run(mk func() *config.Config, o Opts) *Result {
	if o.Samples < 100 {
		o.Samples = 100
	}
	if o.Windows <= 0 {
		o.Windows = 20
	}
	s := &state{mk: mk, o: o, signalPeriod: mk().SignalPeriod}
	campaign.Run(o.Parallelism, s.tasks())
	return s.assemble()
}

// meanN carries a task's trace-derived mean together with its sample count;
// assemble enforces the paper's 100-sample floor on every meanN slot.
type meanN struct {
	mean float64
	n    int
}

// state holds one slot per campaign task. Tasks write only to their own
// slot; every cross-task derivation (component subtractions, the Extra
// diagnostics map) happens serially in assemble, which is what makes the
// parallel campaign semantically identical to the serial one.
type state struct {
	mk           func() *config.Config
	o            Opts
	signalPeriod int

	calibration stats.Summary
	llpMeans    [len(llpScopes)]float64
	measUpdate  float64

	pcie    meanN
	wire    meanN
	network meanN
	rcDelta meanN

	hlpIsend, hlpUcp, hlpUct float64

	waitTotal      float64 // (d) successful MPI_Wait total
	ucpProgPerCall float64 // (e) ucp_worker_progress per call
	waitLoops      float64 // (e) progress loops per wait, same run
	uctProgTotal   float64 // (f) uct progress total per wait
	mpichCB        float64 // (g) MPICH receive callback
	ucpCBTotal     float64 // (h) UCP receive callback incl. nested MPICH
	afterProg      float64 // (i) MPICH work after a successful progress

	txWaitallTotal float64
	txMessages     float64
	txBusyPosts    float64

	obsInj        stats.Summary
	obsLLPLat     float64
	obsOverallInj float64
	obsE2E        float64
}

// llpScopes are the §4.1 LLP regions, one timed per run.
var llpScopes = [...]profile.Scope{
	profile.MDSetup, profile.BarrierMD, profile.BarrierDBC, profile.PIOCopy,
	profile.LLPPost, profile.LLPProg, profile.BusyPost,
}

// cfg builds one fresh config for the named task, with the task's noise
// seed derived from the campaign seed.
func (s *state) cfg(task string) *config.Config {
	c := s.mk()
	c.Seed = rng.DeriveSeed(c.Seed, task)
	return c
}

// sys builds the named task's fresh two-node system.
func (s *state) sys(task string) *node.System {
	return node.NewSystem(s.cfg(task), 2)
}

// tasks enumerates the campaign: every §3 "one component per run"
// sub-measurement as an isolated unit.
func (s *state) tasks() []campaign.Task {
	t := []campaign.Task{
		{Name: "calibration", Run: s.measureCalibration},
		{Name: "pcie", Run: s.measurePCIe},
		{Name: "network/wire", Run: s.measureWire},
		{Name: "network/switched", Run: s.measureSwitched},
		{Name: "rc_to_mem", Run: s.measureRCToMem},
		{Name: "tx_progress", Run: s.measureTxProgress},
		{Name: "observed/put_bw", Run: s.measureObservedPutBw},
		{Name: "observed/am_lat", Run: s.measureObservedAmLat},
		{Name: "observed/osu_mr", Run: s.measureObservedMessageRate},
		{Name: "observed/osu_lat", Run: s.measureObservedLatency},
	}
	for _, sc := range s.scopedTasks() {
		t = append(t, campaign.Task{Name: sc.name, Run: func() { s.runScoped(sc) }})
	}
	return t
}

// scoped is a campaign task that times one software component: on the
// task's fresh system it selects scope on node 0's profiler, runs the
// workload, and collects from the profiler. workload returns rank 0 when
// it runs MPI, for the wait tasks' loop counts.
type scoped struct {
	name     string
	scope    profile.Scope
	workload func(sys *node.System) *mpi.Rank
	collect  func(pr *profile.Profiler, r0 *mpi.Rank)
}

func (s *state) runScoped(sc scoped) {
	sys := s.sys(sc.name)
	pr := sys.Nodes[0].Prof
	pr.Select(sc.scope)
	r0 := sc.workload(sys)
	sys.Shutdown()
	sc.collect(pr, r0)
}

// mean is the scoped task that stores scope's mean in slot.
func mean(name string, scope profile.Scope, workload func(*node.System) *mpi.Rank, slot *float64) scoped {
	return scoped{name, scope, workload, func(pr *profile.Profiler, _ *mpi.Rank) { *slot = pr.MeanNs(scope) }}
}

// scopedTasks lists the campaign's timed tasks, one scope each: the
// measurement update, the §5 HLP initiation scopes over OSU latency, the
// §4.1 LLP regions over put_bw, and the §5 receive-wait breakdown (d)..(i).
func (s *state) scopedTasks() []scoped {
	t := []scoped{
		mean("direct_costs", profile.MeasUpdate, s.measUpdateLoop, &s.measUpdate),
		mean("hlp/mpi_isend", profile.MPIIsend, s.hlpWorkload, &s.hlpIsend),
		mean("hlp/ucp_tag_send_nb", profile.UCPTagSendNB, s.hlpWorkload, &s.hlpUcp),
		mean("hlp/llp_post", profile.LLPPost, s.hlpWorkload, &s.hlpUct),
	}
	for i, sc := range llpScopes {
		t = append(t, mean("llp/"+string(sc), sc, s.llpWorkload, &s.llpMeans[i]))
	}
	return append(t,
		// (d) Total successful MPI_Wait for a receive.
		mean("wait/total", profile.MPIWaitRecv, s.waitWorkload, &s.waitTotal),
		// (e) ucp_worker_progress per call inside receive waits, with the
		// loops-per-wait count from the same run.
		scoped{"wait/ucp_progress", profile.UCPWorkerProgress, s.waitWorkload,
			func(pr *profile.Profiler, r0 *mpi.Rank) {
				s.ucpProgPerCall = pr.MeanNs(profile.UCPWorkerProgress)
				s.waitLoops = float64(r0.Stats.RecvWaitLoops) / float64(r0.Stats.RecvWaits)
			}},
		// (f) uct_worker_progress inside receive waits: successful dequeues
		// and empty polls are separate scopes; totals reconstruct from
		// counts.
		scoped{"wait/uct_progress", profile.LLPProg, s.waitWorkload,
			func(pr *profile.Profiler, r0 *mpi.Rank) {
				waits := float64(r0.Stats.RecvWaits)
				success := pr.Sample(profile.LLPProg)
				total := success.Mean() * float64(success.N()) / waits
				if empty := pr.Sample(profile.EmptyPoll); empty != nil && empty.N() > 0 {
					total += empty.Mean() * float64(empty.N()) / waits
				}
				s.uctProgTotal = total
			}},
		// (g) MPICH receive callback.
		mean("wait/mpich_cb", profile.MPICHRecvCB, s.waitWorkload, &s.mpichCB),
		// (h) UCP receive callback including the nested MPICH callback.
		mean("wait/ucp_cb", profile.UCPRecvCB, s.waitWorkload, &s.ucpCBTotal),
		// (i) MPICH work after a successful progress.
		mean("wait/after_progress", profile.MPICHAfterProgress, s.waitWorkload, &s.afterProg),
	)
}

// assemble combines the task slots into the Result. All arithmetic that
// crosses task boundaries (the Figure-9 subtraction, the §5/§6 layer
// subtractions) lives here, after every measurement has landed.
func (s *state) assemble() *Result {
	// Every trace-derived component needs >= 100 samples (§3).
	for _, src := range []struct {
		name string
		m    meanN
	}{
		{"PCIe round trips", s.pcie},
		{"wire trace deltas", s.wire},
		{"switched-network trace deltas", s.network},
		{"pong->ping deltas", s.rcDelta},
	} {
		if src.m.n < 100 {
			panic(fmt.Sprintf("measure: only %d %s captured", src.m.n, src.name))
		}
	}

	r := &Result{Extra: map[string]float64{}}
	c := &r.Components
	c.SignalPeriod = s.signalPeriod
	r.CalibrationNs = s.calibration

	// --- LLP component times (§4.1) and the benchmark-owned region ---
	c.MDSetup = s.llpMeans[0]
	c.BarrierMD = s.llpMeans[1]
	c.BarrierDBC = s.llpMeans[2]
	c.PIOCopy = s.llpMeans[3]
	c.LLPPost = s.llpMeans[4]
	c.LLPProg = s.llpMeans[5]
	c.BusyPost = s.llpMeans[6]
	c.MeasUpdate = s.measUpdate

	// --- trace-derived hardware components (§4.3) ---
	c.PCIe = s.pcie.mean
	c.Wire = s.wire.mean
	c.Switch = s.network.mean - s.wire.mean
	r.Extra["network_one_way"] = s.network.mean
	// delta = RC-to-MEM(8B) + 2*PCIe + LLP_prog + LLP_post (Figure 9).
	c.RCToMem8 = s.rcDelta.mean - 2*c.PCIe - c.LLPProg - c.LLPPost
	// The 64-byte completion write commits in the same cache line;
	// documented assumption (the paper does not report RC-to-MEM(64B)).
	c.RCToMem64 = c.RCToMem8
	r.Extra["pong_ping_delta"] = s.rcDelta.mean

	// --- HLP initiation (§5): layer times by subtracting nested totals ---
	c.HLPPostMPICH = s.hlpIsend - s.hlpUcp
	c.HLPPostUCP = s.hlpUcp - s.hlpUct
	r.Extra["mpi_isend_total"] = s.hlpIsend
	r.Extra["ucp_tag_send_nb_total"] = s.hlpUcp
	r.Extra["llp_post_in_mpi"] = s.hlpUct

	// --- MPI_Wait breakdown (§5) ---
	sumUcp := s.ucpProgPerCall * s.waitLoops
	ucpCBAlone := s.ucpCBTotal - s.mpichCB
	c.MPICHRecvCB = s.mpichCB
	c.UCPRecvCB = ucpCBAlone
	c.MPICHAfterPr = s.afterProg
	// "Subtracting the total time of ucp_worker_progress from that of
	// MPI_Wait and adding in the time of the MPICH callback gives us the
	// time spent in MPICH" (§5); symmetrically for UCP above UCT.
	c.WaitMPICH = s.waitTotal - sumUcp + s.mpichCB
	c.WaitUCP = sumUcp - s.uctProgTotal + ucpCBAlone
	r.Extra["mpi_wait_total"] = s.waitTotal
	r.Extra["ucp_progress_per_call"] = s.ucpProgPerCall
	r.Extra["wait_loops_per_wait"] = s.waitLoops
	r.Extra["uct_progress_total_per_wait"] = s.uctProgTotal
	r.Extra["ucp_recv_cb_total"] = s.ucpCBTotal

	// --- send-side progress (§6) ---
	// Deduct the deferred LLP_posts that UCP executed inside MPI_Waitall
	// for busy posts (§6 caveat one).
	postProg := (s.txWaitallTotal - s.txBusyPosts*c.LLPPost) / s.txMessages
	// The LLP's share is one LLP_prog amortized over the unsignaled
	// completion period c (§6).
	llpShare := c.LLPProg / float64(c.SignalPeriod)
	c.LLPTxProg = llpShare
	c.HLPTxProg = postProg - llpShare
	c.MiscPerOp = s.txBusyPosts * c.BusyPost / s.txMessages
	r.BusyPerOp = s.txBusyPosts / s.txMessages
	r.Extra["waitall_per_op"] = s.txWaitallTotal / s.txMessages
	r.Extra["post_prog"] = postProg

	// --- observed values (§4.2, §4.3, §6) ---
	r.Observed = Observed{
		LLPInjection:       s.obsInj,
		LLPLatencyNs:       s.obsLLPLat,
		OverallInjectionNs: s.obsOverallInj,
		E2ELatencyNs:       s.obsE2E,
	}
	return r
}

// --- profiling-infrastructure calibration ---

func (s *state) measureCalibration() {
	sys := s.sys("calibration")
	sys.K.SpawnTask("calibrate", oneStep(func(t *sim.Task) {
		s.calibration = sys.Nodes[0].Prof.Calibrate(t)
	}))
	sys.Run()
	sys.Shutdown()
}

// oneStep is a frame for work that never pauses (profiler-only runs that
// touch nothing outside the task), so it completes in a single Step.
type oneStep func(t *sim.Task)

func (f oneStep) Step(t *sim.Task) {
	f(t)
	t.Return()
}

// --- LLP component times (§4.1), one timed scope per run ---

// llpWorkload is put_bw from node 0, which calibrates its profiler first.
func (s *state) llpWorkload(sys *node.System) *mpi.Rank {
	perftest.PutBw(sys, perftest.Options{Iters: s.o.Samples + s.o.Samples/4, Warmup: 100})
	return nil
}

// measUpdateLoop times the benchmark-owned region (the measurement update)
// the same way the paper wraps it with UCS profiling.
func (s *state) measUpdateLoop(sys *node.System) *mpi.Rank {
	cfg := sys.Cfg
	n0 := sys.Nodes[0]
	sys.K.SpawnTask("direct_costs", oneStep(func(t *sim.Task) {
		prof := n0.Prof
		prof.Calibrate(t)
		for i := 0; i < s.o.Samples; i++ {
			tok := prof.Begin(t, profile.MeasUpdate)
			t.Advance(cfg.SW.MeasUpdate.Sample(n0.Rand))
			prof.End(t, tok)
		}
	}))
	sys.Run()
	return nil
}

// --- PCIe (§4.3): half the TLP->ACK round trip at the analyzer ---

func (s *state) measurePCIe() {
	sys := s.sys("pcie")
	tap := sys.Nodes[0].AttachTap()
	perftest.PutBw(sys, perftest.Options{Iters: s.o.Samples, Warmup: 100})
	// The NIC's completion DMA-writes are upstream MWr transactions; each
	// is matched with its ACK DLLP from the RC.
	rt := tap.AckRoundTrips(pcie.Up, pcie.MWr)
	s.pcie = meanN{rt.Mean(), rt.N()}
	sys.Shutdown()
}

// --- Wire and Switch (§4.3): am_lat trace deltas with and without the
// switch; the difference isolates the switch ---

func networkFromTrace(tap *analyzer.Analyzer) *stats.Sample {
	// Downstream 64B MWr (the PIO ping) to the next upstream 64B MWr
	// (the ping's completion, generated on the ACK from the target NIC):
	// the delta spans the network twice.
	deltas := tap.PairDeltas(
		func(rec analyzer.Record) bool {
			return rec.IsTLP && rec.Dir == pcie.Down && rec.TLPType == pcie.MWr && rec.Payload == 64
		},
		func(rec analyzer.Record) bool {
			return rec.IsTLP && rec.Dir == pcie.Up && rec.TLPType == pcie.MWr && rec.Payload == 64
		},
	)
	var half stats.Sample
	for _, d := range deltas.Values() {
		half.Add(d / 2)
	}
	return &half
}

func (s *state) measureWire() {
	// Direct NIC-to-NIC cabling isolates the cable.
	cfg := s.cfg("network/wire")
	cfg.Topology.Kind = topo.BackToBack
	sys := node.NewSystem(cfg, 2)
	tap := sys.Nodes[0].AttachTap()
	perftest.AmLat(sys, perftest.Options{Iters: s.o.Samples, Warmup: 50})
	wire := networkFromTrace(tap)
	s.wire = meanN{wire.Mean(), wire.N()}
	sys.Shutdown()
}

func (s *state) measureSwitched() {
	sys := s.sys("network/switched")
	tap := sys.Nodes[0].AttachTap()
	perftest.AmLat(sys, perftest.Options{Iters: s.o.Samples, Warmup: 50})
	network := networkFromTrace(tap)
	s.network = meanN{network.Mean(), network.N()}
	sys.Shutdown()
}

// --- RC-to-MEM(8B) (§4.3, Figure 9): inbound-pong to outbound-ping delta;
// the already-measured components are subtracted in assemble ---

func (s *state) measureRCToMem() {
	sys := s.sys("rc_to_mem")
	tap := sys.Nodes[0].AttachTap()
	// One pong->ping pair per iteration boundary: run a margin past the
	// sample target so the trace yields at least o.Samples pairs.
	res := perftest.AmLat(sys, perftest.Options{Iters: s.o.Samples + 20, Warmup: 50})
	rcq := res.Ep0.QP().RecvCQ.Region
	deltas := tap.PairDeltas(
		// Inbound pong: the upstream DMA write into the initiator's
		// receive completion queue.
		func(rec analyzer.Record) bool {
			return rec.IsTLP && rec.Dir == pcie.Up && rec.TLPType == pcie.MWr &&
				rcq.Contains(rec.Addr, rec.Payload)
		},
		// Outgoing ping: the next downstream 64-byte PIO post.
		func(rec analyzer.Record) bool {
			return rec.IsTLP && rec.Dir == pcie.Down && rec.TLPType == pcie.MWr && rec.Payload == 64
		},
	)
	s.rcDelta = meanN{deltas.Mean(), deltas.N()}
	sys.Shutdown()
}

// --- HLP initiation (§5): one timed scope per run ---

// hlpWorkload is OSU latency from rank 0, which calibrates its profiler
// first.
func (s *state) hlpWorkload(sys *node.System) *mpi.Rank {
	return osu.Latency(sys, osu.Options{Iters: s.o.Samples, Warmup: 50}).Rank0
}

// --- MPI_Wait breakdown (§5): totals and callbacks across runs, combined
// with per-wait loop counts ---

// The §5 wait workload's timetable: message i is sent, and its receive
// posted, at waitStart+i*waitPeriod. The waiter calibrates its profiler
// first (~100 us of simulated time); traffic starts afterwards.
const (
	waitStart  = 500 * units.Microsecond
	waitPeriod = 5 * units.Microsecond
	// waitDelay places each MPI_Wait after its message has landed (~1.4 us
	// in), so the completion is already in the queue.
	waitDelay = 3 * units.Microsecond
)

// sleepUntil advances t to target and pauses there. It reports whether the
// task suspended; a target already reached costs nothing.
func sleepUntil(t *sim.Task, target units.Time) bool {
	if target <= t.Now() {
		return false
	}
	t.Advance(target - t.Now())
	return t.Pause()
}

// waitSenderFrame is rank 1 of the wait workload: one isend per period,
// each followed by a progress call.
type waitSenderFrame struct {
	r       *mpi.Rank
	samples int
	data    []byte
	pc, i   int
}

func (f *waitSenderFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.r.StartPreparePostedRecvs(t, 64)
			return
		case 1:
			if f.i >= f.samples {
				t.Return()
				return
			}
			f.pc = 2
			if sleepUntil(t, waitStart+units.Time(f.i)*waitPeriod) {
				return
			}
		case 2:
			f.pc = 3
			f.r.StartIsend(t, 0, f.i, f.data)
			return
		case 3:
			// Keep the transport retiring unsignaled batches.
			f.pc = 4
			f.r.Worker.StartProgress(t)
			return
		case 4:
			f.i++
			f.pc = 1
		}
	}
}

// waitWaiterFrame is rank 0 of the wait workload: it posts each receive on
// the send schedule and waits for it once the message has landed.
type waitWaiterFrame struct {
	r       *mpi.Rank
	samples int
	pc, i   int
	req     *mpi.Request
}

func (f *waitWaiterFrame) Step(t *sim.Task) {
	for {
		at := waitStart + units.Time(f.i)*waitPeriod
		switch f.pc {
		case 0:
			f.r.Node.Prof.Calibrate(t)
			f.pc = 1
			f.r.StartPreparePostedRecvs(t, 512)
			return
		case 1:
			if f.i >= f.samples {
				t.Return()
				return
			}
			f.pc = 2
			if sleepUntil(t, at) {
				return
			}
		case 2:
			f.req = f.r.Irecv(t, 1, f.i)
			f.pc = 3
			if sleepUntil(t, at+waitDelay) {
				return
			}
		case 3:
			f.pc = 4
			f.r.StartWait(t, f.req)
			return
		case 4:
			f.req = nil
			f.i++
			f.pc = 1
		}
	}
}

// waitWorkload drives "successful (i.e. no busy waiting) MPI_Wait" calls
// (§5): rank 1 sends on a fixed schedule; rank 0 posts the receive before
// each message arrives and calls MPI_Wait only after it has landed, so every
// wait completes on its first progress pass.
func (s *state) waitWorkload(sys *node.System) *mpi.Rank {
	comm := mpi.NewComm(sys.Nodes[:2], sys.Cfg, uct.PIOInline)
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	sys.K.SpawnTask("wait_workload.sender", &waitSenderFrame{r: r1, samples: s.o.Samples, data: make([]byte, 8)})
	sys.K.SpawnTask("wait_workload.waiter", &waitWaiterFrame{r: r0, samples: s.o.Samples})
	sys.Run()
	return r0
}

// --- Send-side progress (§6): MPI_Waitall totals; the busy-post LLP_post
// deduction happens in assemble ---

func (s *state) measureTxProgress() {
	sys := s.sys("tx_progress")
	res := osu.MessageRate(sys, osu.Options{Windows: s.o.Windows})
	s.txMessages = float64(res.Messages)
	s.txBusyPosts = float64(res.BusyPosts)
	s.txWaitallTotal = res.WaitallTotalNs
	sys.Shutdown()
}

// --- Observed values (§4.2, §4.3, §6) ---

func (s *state) measureObservedPutBw() {
	// put_bw: injection overhead observed by the NIC = deltas of
	// consecutive downstream PIO posts on the analyzer (Figures 6 and 7).
	sys := s.sys("observed/put_bw")
	tap := sys.Nodes[0].AttachTap()
	perftest.PutBw(sys, perftest.Options{Iters: 4 * s.o.Samples, Warmup: 200})
	down := tap.TLPs(pcie.Down, pcie.MWr, 64, 64)
	s.obsInj = analyzer.Deltas(down).Summarize()
	sys.Shutdown()
}

func (s *state) measureObservedAmLat() {
	// am_lat: reported latency minus half a measurement update (§4.3).
	sys := s.sys("observed/am_lat")
	res := perftest.AmLat(sys, perftest.Options{Iters: s.o.Samples, Warmup: 50})
	s.obsLLPLat = res.AdjustedNs
	sys.Shutdown()
}

func (s *state) measureObservedMessageRate() {
	// OSU message rate: the §6 observed injection overhead is the
	// inverse message rate.
	sys := s.sys("observed/osu_mr")
	res := osu.MessageRate(sys, osu.Options{Windows: s.o.Windows})
	s.obsOverallInj = res.MeanInjNs
	sys.Shutdown()
}

func (s *state) measureObservedLatency() {
	// OSU latency: the §6 observed end-to-end latency.
	sys := s.sys("observed/osu_lat")
	res := osu.Latency(sys, osu.Options{Iters: s.o.Samples, Warmup: 50})
	s.obsE2E = res.ReportedNs
	sys.Shutdown()
}

// Validations assembles the paper's four model-vs-observed comparisons.
func (r *Result) Validations() []model.Validation {
	c := r.Components
	return []model.Validation{
		model.Validate("LLP injection (§4.2)", c.LLPInjection(), r.Observed.LLPInjection.Mean),
		model.Validate("LLP latency (§4.3)", c.LLPLatency(), r.Observed.LLPLatencyNs),
		model.Validate("Overall injection (§6)", c.OverallInjection(), r.Observed.OverallInjectionNs),
		model.Validate("E2E latency (§6)", c.E2ELatency(), r.Observed.E2ELatencyNs),
	}
}
