// Package config holds the calibrated parameter set for the simulated
// system: an Arm ThunderX2-class server with a ConnectX-4-class adapter
// (the paper's evaluation platform), plus the noise model and UCP's
// signal period, the one benchmark shape runs vary. Shapes no run varies
// are constants beside their reader (perftest, osu, uct, node, profile).
// Of the PCIe link, the Root Complex and the wire it holds only the four
// latencies the paper's §7 what-if varies (PCIe, RC-to-MEM, Wire and
// Switch); their serialization, credit pools, turnaround and DMA read
// time are constants in internal/pcie and internal/fabric.
//
// Calibration philosophy: the paper's Table 1 reports component times
// *measured through its methodology* (CPU timers with overhead subtraction,
// PCIe-analyzer trace deltas). We therefore choose raw hardware parameters so
// that re-running the same methodology inside the simulation reproduces the
// Table-1 values, rather than naively assigning the Table-1 values to raw
// latencies (the two differ by serialization, turnaround and polling-lag
// terms, exactly as on real hardware). Software costs are taken directly
// from Table 1 where reported; internal splits the paper does not report are
// documented assumptions here.
package config

import (
	"breakband/internal/fabric"
	"breakband/internal/faults"
	"breakband/internal/pcie"
	"breakband/internal/rng"
	"breakband/internal/topo"
	"breakband/internal/units"
)

// Paper's Table 1 component means in nanoseconds. These are the calibration
// targets; golden tests pin the analytical pipeline against them.
const (
	TabMDSetup        = 27.78
	TabBarrierMD      = 17.33
	TabBarrierDBC     = 21.07
	TabPIOCopy        = 94.25
	TabLLPPostMisc    = 14.99
	TabLLPPost        = 175.42
	TabLLPProg        = 61.63
	TabBusyPost       = 8.99
	TabMeasUpdate     = 49.69
	TabMiscInj        = 58.68
	TabPCIe           = 137.49
	TabWire           = 274.81
	TabSwitch         = 108.0
	TabNetwork        = 382.81
	TabRCToMem8       = 240.96
	TabMPIIsendMPICH  = 24.37
	TabMPIIsendUCP    = 2.19
	TabMPICHRecvCB    = 47.99
	TabMPIWaitMPICH   = 293.29
	TabUCPRecvCB      = 139.78
	TabMPIWaitUCP     = 150.51
	TabMPICHAfterProg = 36.89 // §6: MPICH work after a successful ucp_worker_progress
	TabHLPTxProgPerOp = 58.86 // §6: Post_prog (59.82) minus its LLP share (61.63/64)
)

// Derived paper values used by golden tests.
const (
	TabHLPPost         = TabMPIIsendMPICH + TabMPIIsendUCP                              // 26.56
	TabPost            = TabHLPPost + TabLLPPost                                        // 201.98
	TabHLPRxProg       = TabMPICHRecvCB + TabUCPRecvCB + TabMPICHAfterProg              // 224.66
	TabLLPInjModel     = TabLLPPost + TabLLPProg + TabMiscInj                           // 295.73
	TabLLPLatencyModel = TabLLPPost + 2*TabPCIe + TabNetwork + TabRCToMem8 + TabLLPProg // 1135.8
	TabE2ELatencyModel = TabHLPPost + TabLLPLatencyModel + TabHLPRxProg                 // 1387.02
	TabObsLLPInjection = 282.33
	TabObsLLPLatency   = 1190.25
	TabObsOverallInj   = 263.91
	TabObsE2ELatency   = 1336.0
	// TabGenCompletion is §4.2's completion-generation time implied by
	// Table 1 — two PCIe+Network traversals (message out, ACK back) plus
	// the completion write — the numerator of the poll-window lower bound
	// p >= gen_completion / LLP_post.
	TabGenCompletion = 2*(TabPCIe+TabNetwork) + TabRCToMem8 // 1281.56
)

// The paper's Figure-7 distribution of the observed injection overhead
// (ns): its mean is TabObsLLPInjection above.
const (
	TabFig7Median = 266.30
	TabFig7Min    = 201.30
	TabFig7Max    = 34951.70
	TabFig7Std    = 58.4866
)

// NoiseLevel selects the stochastic model.
type NoiseLevel int

// Noise levels.
const (
	// NoiseOff makes every cost its mean: runs are exactly reproducible
	// arithmetic, used by golden tests.
	NoiseOff NoiseLevel = iota
	// NoiseOn applies lognormal jitter to software costs plus a rare
	// preemption spike, producing Figure-7-like distributions.
	NoiseOn
)

// Software coefficient-of-variation defaults for NoiseOn.
const (
	swCV = 0.15
	// pioCV is higher: writes to uncached Device-GRE memory stall on
	// write-buffer occupancy, making the PIO copy the dominant variance
	// source of an LLP_post. This yields a Figure-7-like core spread
	// (sigma ~45 ns per injection) while preserving the 94.25 ns mean.
	pioCV   = 0.45
	timerCV = 0.03
	// Preemption spike: rare and huge — reproduces the paper's Figure-7
	// tail (a 34951 ns maximum against a 282 ns mean with sigma 58): one
	// ~15 us stall every ~100k iterations keeps the overall sigma near
	// the paper's while producing the off-scale maximum.
	spikeP  = 1e-5
	spikeNs = 15000.0
)

// SW collects every software cost as a distribution. The LLP_post stage
// means follow the paper's Figure 4 / Table 1 exactly; stage splits the
// paper does not report (flagged "assumption") are chosen to preserve the
// reported totals.
type SW struct {
	// --- LLP (UCT) post stages, paper §4.1 ---
	LLPPostEntry rng.Dist // assumption: function-call/branch share of Misc
	MDSetup      rng.Dist // prepare message descriptor (incl. inline memcpy)
	BarrierMD    rng.Dist // dmb st after MD write
	DBCIncrement rng.Dist // assumption: DoorBell-counter update share of Misc
	BarrierDBC   rng.Dist // dmb st after DBC update
	PIOCopy      rng.Dist // 64-byte copy to Device-GRE memory, per chunk
	LLPPostExit  rng.Dist // assumption: remaining Misc

	// --- LLP progress, paper §4.1 ---
	LLPProgBarrier rng.Dist // load barrier (the one critical category)
	LLPProgCQERead rng.Dist // assumption: CQE read + ownership check
	LLPProgMisc    rng.Dist // assumption: index update, bookkeeping
	LLPProgFailChk rng.Dist // failed ownership check after the barrier
	PostRecv       rng.Dist // posting one receive credit (off critical path)

	// MemcpyPerByte is the per-byte cost of bulk copies (staging bcopy
	// payloads, draining large receives from the pool); ~33 GB/s.
	MemcpyPerByte units.Time

	BusyPost   rng.Dist // a failed LLP_post against a full TxQ
	MeasUpdate rng.Dist // benchmark timestamp + statistics update
	BenchLoop  rng.Dist // residual per-iteration benchmark logic
	AmRxHandle rng.Dist // UCT active-message receive dispatch (target side)

	// --- DoorBell+DMA path (ablation X1) ---
	SQRingWrite  rng.Dist // 64B WQE store to Normal memory (<1 ns, paper §7.1)
	DBRecUpdate  rng.Dist // doorbell record store
	DoorbellRing rng.Dist // 8-byte atomic write to device memory

	// --- HLP: UCP ---
	UcpIsend    rng.Dist // ucp_tag_send_nb above uct_ep_am_short
	UcpProgress rng.Dist // ucp_worker_progress above uct_worker_progress
	UcpSendCB   rng.Dist // assumption: UCP send-completion callback share
	UcpRecvCB   rng.Dist // UCP receive callback body (excl. nested MPICH cb)
	UcpPending  rng.Dist // pending-queue bookkeeping for a busy post

	// --- HLP: MPICH ---
	MpiIsend       rng.Dist // MPI_Isend above ucp_tag_send_nb
	MpiIrecv       rng.Dist // MPI_Irecv posting (overlapped; excluded from models)
	MpichSendCB    rng.Dist // assumption: MPICH send-completion callback share
	MpichRecvCB    rng.Dist // MPICH receive callback
	MpichAfterPrg  rng.Dist // MPICH work after successful ucp_worker_progress
	MpichWaitEnt   rng.Dist // assumption: MPI_Wait entry+exit bookkeeping
	MpichWaitLoop  rng.Dist // assumption: per-iteration progress-engine overhead
	MpichWaitallOp rng.Dist // assumption: MPI_Waitall per-op bookkeeping
}

// Prof holds the profiling-infrastructure costs: the paper's 49.69 ns mean
// (sigma 1.48) per measurement is the sum of the isb and the counter
// read+record.
type Prof struct {
	Isb  rng.Dist
	Read rng.Dist
}

// Config is the complete parameter set for a simulated system.
type Config struct {
	Seed  uint64
	Noise NoiseLevel

	SW   SW
	Prof Prof

	// SignalPeriod is UCP's unsignaled-completion period c (paper §6: 64).
	// Latency runs, the chaos soak and blocking sends set 1.
	SignalPeriod int

	// PCIeProp is the one-way propagation of every node's PCIe link and
	// RCToMemBase its Root Complex's commit latency for a write of up to
	// one cache line: the two I/O latencies the §7 what-if varies. The
	// rest of the link and the Root Complex are constants in
	// internal/pcie.
	PCIeProp    units.Time
	RCToMemBase units.Time
	// Fabric holds the wire propagation and switch latency, the network
	// latencies the what-if varies; the wire's serialization is constant
	// (fabric.SerTime).
	Fabric fabric.Config

	// Topology selects the compiled fabric shape (see internal/topo), and
	// with it whether the two-node path crosses a switch. The zero Spec is
	// Auto, a single switch: two nodes get the paper's calibrated switched
	// path, more nodes share the switch's contended ports. TX2CX4 without
	// a switch sets BackToBack.
	Topology topo.Spec

	// NICRxBudget bounds every NIC's receive-side pend buffering: the
	// number of inbound data frames a NIC may hold while their host-memory
	// writes wait for PCIe posted credits. Beyond the budget the NIC
	// refuses frames with RNR NAKs and senders retry after a backoff
	// (internal/nic's fixed retry policy). Zero keeps the unbounded legacy
	// behaviour. node.NewSystem copies a positive value into each NIC's
	// nic.Config.RxBudget.
	NICRxBudget int

	// Faults is the deterministic fault-injection schedule: link faults
	// (drop/corrupt rates, scripted drops, link flaps) and endpoint faults
	// (scheduled NIC crashes with optional restart, host pause windows
	// that stall the node's PCIe upstream issue path) — see
	// internal/faults. The zero value injects nothing and adds no cost
	// anywhere. When any fault is enabled, node.NewSystem compiles the
	// schedule against Seed, adopts link faults into the fabric, arms the
	// endpoint faults as kernel events, and arms the NICs' ACK-timeout
	// recovery with nic.DefaultAckTimeout (peers discover a dead NIC
	// through it).
	Faults faults.Config

	// TraceCapacity, when positive, enables fabric-wide event tracing:
	// node.NewSystem installs a trace.Tracer whose ring holds this many
	// events on the kernel before any layer is built, so every layer
	// captures it at construction. The ring overwrites oldest-first when
	// full. Zero (the default) disables tracing entirely — no TIDs are
	// stamped, no events emitted, and the hot paths are byte-identical
	// with the untraced build.
	TraceCapacity int
}

func dist(noise NoiseLevel, ns, cv float64) rng.Dist {
	if noise == NoiseOff || cv <= 0 {
		return rng.FixedNs(ns)
	}
	return rng.LogNormalNs(ns, cv)
}

// TX2CX4 returns the calibrated ThunderX2 + ConnectX-4 + EDR InfiniBand
// configuration. useSwitch keeps the default single-switch topology (the
// paper's main numbers include the switch); without it the two nodes are
// cabled back to back (Topology.Kind = topo.BackToBack).
func TX2CX4(noise NoiseLevel, seed uint64, useSwitch bool) *Config {
	c := &Config{Seed: seed, Noise: noise, SignalPeriod: 64}

	// ---- software costs ----
	// LLP_post stages: Table 1 directly; Misc (14.99) split across
	// entry / DBC increment / exit (assumption).
	c.SW.LLPPostEntry = dist(noise, 7.00, swCV)
	c.SW.MDSetup = dist(noise, TabMDSetup, swCV)
	c.SW.BarrierMD = dist(noise, TabBarrierMD, swCV)
	c.SW.DBCIncrement = dist(noise, 4.00, swCV)
	c.SW.BarrierDBC = dist(noise, TabBarrierDBC, swCV)
	c.SW.PIOCopy = dist(noise, TabPIOCopy, pioCV)
	c.SW.LLPPostExit = dist(noise, 3.99, swCV)
	// LLP_prog total 61.63; split is an assumption (barrier is the one
	// category the paper names).
	c.SW.LLPProgBarrier = dist(noise, 18.50, swCV)
	c.SW.LLPProgCQERead = dist(noise, 22.00, swCV)
	c.SW.LLPProgMisc = dist(noise, 21.13, swCV)
	c.SW.LLPProgFailChk = dist(noise, 9.50, swCV)
	c.SW.PostRecv = dist(noise, 10.00, swCV)

	c.SW.BusyPost = dist(noise, TabBusyPost, swCV)
	c.SW.MeasUpdate = dist(noise, TabMeasUpdate, timerCV)
	bench := dist(noise, 3.00, swCV)
	if noise == NoiseOn {
		bench = rng.Spiked{Base: bench, P: spikeP, Extra: dist(noise, spikeNs, 0.3)}
	}
	c.SW.BenchLoop = bench
	c.SW.AmRxHandle = dist(noise, 10.00, swCV)

	c.SW.MemcpyPerByte = 30 // ps/B
	c.SW.SQRingWrite = dist(noise, 0.90, swCV)
	c.SW.DBRecUpdate = dist(noise, 0.90, swCV)
	c.SW.DoorbellRing = dist(noise, 30.00, swCV)

	c.SW.UcpIsend = dist(noise, TabMPIIsendUCP, swCV)
	// ucp_worker_progress's own overhead above uct. Together with the
	// batched receive-credit reposting (~10 ns/op amortized) this
	// reproduces the paper's WaitUCP - UCPRecvCB difference (10.73 ns)
	// when the §5 methodology runs.
	c.SW.UcpProgress = dist(noise, 0.90, swCV)
	c.SW.UcpSendCB = dist(noise, 30.00, swCV)
	c.SW.UcpRecvCB = dist(noise, TabUCPRecvCB, swCV)
	c.SW.UcpPending = dist(noise, 5.00, swCV)

	c.SW.MpiIsend = dist(noise, TabMPIIsendMPICH, swCV)
	c.SW.MpiIrecv = dist(noise, 50.00, swCV)
	c.SW.MpichSendCB = dist(noise, 27.40, swCV)
	c.SW.MpichRecvCB = dist(noise, TabMPICHRecvCB, swCV)
	c.SW.MpichAfterPrg = dist(noise, TabMPICHAfterProg, swCV)
	// MPI_Wait entry bookkeeping: sized so the §5 methodology measures
	// the paper's MPICH share of a successful MPI_Wait (293.29 ns).
	c.SW.MpichWaitEnt = dist(noise, 196.40, swCV)
	c.SW.MpichWaitLoop = dist(noise, 12.00, swCV)
	c.SW.MpichWaitallOp = dist(noise, 13.86, swCV)

	// ---- profiling infrastructure ----
	// isb + read/record = 49.69 ns mean, matching the paper's measured
	// UCS overhead (sigma 1.48 over 1000 samples).
	c.Prof.Isb = dist(noise, 15.00, timerCV)
	c.Prof.Read = dist(noise, 34.69, timerCV)

	// ---- PCIe ----
	// The trace methodology measures PCIe as half the TLP->ACK round trip
	// at the tap: RT = 2*Prop + serialize(DLLP) + AckDelay. Solve Prop so
	// the measured value equals Table 1's 137.49 ns.
	dllpSerNs := pcie.SerTime(pcie.DLLPBytes).Ns()
	c.PCIeProp = units.Nanoseconds(TabPCIe - (dllpSerNs+pcie.AckDelay.Ns())/2)

	// ---- Root Complex ----
	// RC-to-MEM commit latency is per cache line for <=64B writes, so the
	// 8B payload value applies to the 64B CQE as well. The raw commit
	// latency is set below Table 1's 240.96 ns because the Figure-9 trace
	// methodology unavoidably folds the target's polling lag and receive
	// dispatch into its estimate — running the methodology on this raw
	// value measures ~240.96 ns, as on the paper's hardware. Beyond one
	// cache line the commit scales with streaming DDR write bandwidth
	// (pcie.RCToMem), which the message-size sweep exercises.
	c.RCToMemBase = units.Nanoseconds(233.36)

	// ---- fabric ----
	// The am_lat trace methodology measures Network as half the
	// (downstream ping -> upstream completion) delta:
	//   delta = ser(data) + Prop [+Switch] + ser(ack) + Prop [+Switch]
	//           + ser(CQE TLP on PCIe, observed at tap departure)
	// Solve WireProp so the measured no-switch value equals Table 1's
	// Wire (274.81 ns).
	dataSerNs := fabric.SerTime(8).Ns()
	ackSerNs := fabric.SerTime(0).Ns()
	cqeSerNs := pcie.SerTime(64 + pcie.TLPHeader).Ns()
	c.Fabric = fabric.Config{
		WireProp:      units.Nanoseconds(TabWire - (dataSerNs+ackSerNs+cqeSerNs)/2),
		SwitchLatency: units.Nanoseconds(TabSwitch),
	}

	if !useSwitch {
		c.Topology.Kind = topo.BackToBack
	}
	return c
}

// Rand returns the root RNG for this configuration (nil in NoiseOff so
// distributions collapse to their means).
func (c *Config) Rand(stream string) *rng.Rand {
	if c.Noise == NoiseOff {
		return nil
	}
	return rng.Stream(c.Seed, stream)
}

// LLPPostMean reports the configured LLP_post mean in ns (sum of stages),
// used by tests to confirm the split preserves Table 1's total.
func (c *Config) LLPPostMean() float64 {
	sum := units.Time(0)
	for _, d := range []rng.Dist{
		c.SW.LLPPostEntry, c.SW.MDSetup, c.SW.BarrierMD, c.SW.DBCIncrement,
		c.SW.BarrierDBC, c.SW.PIOCopy, c.SW.LLPPostExit,
	} {
		sum += d.Mean()
	}
	return sum.Ns()
}

// LLPProgMean reports the configured LLP_prog mean in ns.
func (c *Config) LLPProgMean() float64 {
	return (c.SW.LLPProgBarrier.Mean() + c.SW.LLPProgCQERead.Mean() + c.SW.LLPProgMisc.Mean()).Ns()
}
