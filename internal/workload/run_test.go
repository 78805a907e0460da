package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/topo"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// incastSpec is the ISSUE's acceptance shape: an open-loop Poisson incast
// over the 8-node fat-tree.
func incastSpec() *Spec {
	return &Spec{
		Name:     "incast8",
		Nodes:    8,
		Topology: "fattree",
		Cohorts: []Cohort{{
			Name:     "storm",
			Clients:  64,
			Src:      []int{1, 2, 3, 4, 5, 6, 7},
			Dst:      []int{0},
			Duration: 200 * units.Microsecond,
			Arrival:  ArrivalSpec{Process: ProcPoisson, Rate: 40e3}, // ~2.5M msg/s aggregate
			Size:     SizeSpec{Dist: SizeDistFixed, Bytes: 64},
		}},
	}
}

func runSpec(t *testing.T, spec *Spec, noise config.NoiseLevel, seed uint64, opt RunOpt) *Result {
	t.Helper()
	cfg := spec.BuildConfig(noise, seed)
	sys := node.NewSystem(cfg, spec.Nodes)
	defer sys.Shutdown()
	res, err := Run(spec, sys, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestIncastRunDelivers(t *testing.T) {
	res := runSpec(t, incastSpec(), config.NoiseOff, 7, RunOpt{Record: true})
	c := &res.Cohorts[0]
	if c.Offered == 0 {
		t.Fatal("no arrivals generated")
	}
	if c.Delivered != c.Offered || c.Failed != 0 {
		t.Fatalf("delivered %d + failed %d of %d offered", c.Delivered, c.Failed, c.Offered)
	}
	if c.Bytes != uint64(64*c.Delivered) {
		t.Fatalf("bytes %d, want %d", c.Bytes, 64*c.Delivered)
	}
	if c.Goodput() <= 0 {
		t.Fatal("zero goodput")
	}
	if got := c.Latency.N(); got != c.Delivered {
		t.Fatalf("latency samples %d, want %d", got, c.Delivered)
	}
	if len(res.Trace.Recs) != c.Offered {
		t.Fatalf("trace records %d, want %d", len(res.Trace.Recs), c.Offered)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("Err = %v on a run that delivered every message", err)
	}
}

// TestAllFailedRunElapsed: when a 100% drop rate fails every message, the
// run still spans its first arrival to its last failure, and Err names the
// cohort with its failed and offered counts.
func TestAllFailedRunElapsed(t *testing.T) {
	spec := &Spec{
		Name:   "drop1",
		Nodes:  3,
		Faults: FaultSpec{DropRate: 1},
		Cohorts: []Cohort{{
			Name:     "c",
			Clients:  2,
			Src:      []int{1, 2},
			Dst:      []int{0},
			Duration: 200 * units.Microsecond,
			Arrival:  ArrivalSpec{Process: ProcPoisson, Rate: 1e5},
			Size:     SizeSpec{Dist: SizeDistFixed, Bytes: 64},
		}},
	}
	res := runSpec(t, spec, config.NoiseOff, 1, RunOpt{})
	c := &res.Cohorts[0]
	if c.Offered == 0 || c.Delivered != 0 || c.Failed != c.Offered {
		t.Fatalf("offered %d, delivered %d, failed %d; want every offered message failed", c.Offered, c.Delivered, c.Failed)
	}
	if res.Elapsed <= 0 || c.LastDone <= c.FirstAt {
		t.Errorf("elapsed %v (first arrival %v, last end %v), want a positive span", res.Elapsed, c.FirstAt, c.LastDone)
	}
	want := fmt.Sprintf(`workload "drop1": cohort "c": %d of %d offered message(s) failed`, c.Failed, c.Offered)
	if err := res.Err(); err == nil || err.Error() != want {
		t.Errorf("Err = %v, want %s", err, want)
	}
}

// TestRecoveryCountsFrameReplays: a cohort's Retransmits is the sum of
// its QPs' frame replays. A receiver rx budget of 2 RNR-NAKs the 4 KiB
// incast, and every RNR round replays the refused QP's tail; the rounds
// themselves (RnrRetransmits) replay nothing of their own.
func TestRecoveryCountsFrameReplays(t *testing.T) {
	spec := &Spec{
		Name:     "rnr",
		Nodes:    5,
		RxBudget: 2,
		Cohorts: []Cohort{{
			Name:     "storm",
			Clients:  4,
			Src:      []int{1, 2, 3, 4},
			Dst:      []int{0},
			Duration: 100 * units.Microsecond,
			Arrival:  ArrivalSpec{Process: ProcPoisson, Rate: 2e6},
			Size:     SizeSpec{Dist: SizeDistFixed, Bytes: 4096},
		}},
	}
	sys := node.NewSystem(spec.BuildConfig(config.NoiseOff, 1), spec.Nodes)
	defer sys.Shutdown()
	res, err := Run(spec, sys, RunOpt{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var replays, rounds uint64
	for _, n := range sys.Nodes {
		for _, qp := range n.NIC.QPs() {
			replays += qp.Retransmits
			rounds += qp.RnrRetransmits
		}
	}
	rec := res.Cohorts[0].Recovery
	if rec.RNRNaksRecv == 0 || rounds == 0 {
		t.Fatalf("%d RNR NAKs and %d RNR rounds: the rx budget refused nothing", rec.RNRNaksRecv, rounds)
	}
	if rec.Retransmits != replays {
		t.Errorf("cohort counts %d retransmits, its QPs replayed %d frames (in %d RNR rounds)", rec.Retransmits, replays, rounds)
	}
}

// TestRecordReplayBitIdentical is the acceptance assertion: a recorded run
// replays byte-identically — the replay re-records the exact trace bytes
// and reproduces every per-cohort statistic.
func TestRecordReplayBitIdentical(t *testing.T) {
	spec := incastSpec()
	orig := runSpec(t, spec, config.NoiseOff, 7, RunOpt{Record: true})
	enc := orig.Trace.Encode()

	dec, err := DecodeTrace(enc)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	rep := runSpec(t, spec, config.NoiseOff, 7, RunOpt{Record: true, Replay: dec})
	if !bytes.Equal(rep.Trace.Encode(), enc) {
		t.Fatal("replayed re-recording differs from the original trace")
	}
	a, b := &orig.Cohorts[0], &rep.Cohorts[0]
	if a.Offered != b.Offered || a.Delivered != b.Delivered || a.Failed != b.Failed ||
		a.Bytes != b.Bytes || a.FirstAt != b.FirstAt || a.LastDone != b.LastDone {
		t.Fatalf("replay stats differ: %+v vs %+v", a, b)
	}
	if a.Latency.Mean() != b.Latency.Mean() || a.Latency.Max() != b.Latency.Max() {
		t.Fatal("replay latency distribution differs")
	}
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	res := runSpec(t, incastSpec(), config.NoiseOff, 3, RunOpt{Record: true})
	enc := res.Trace.Encode()
	dec, err := DecodeTrace(enc)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("encode(decode(x)) != x")
	}
	if err := dec.CompatibleWith(incastSpec()); err != nil {
		t.Fatalf("CompatibleWith: %v", err)
	}
}

// TestValidateMemoryBound: Validate's per-node memory check is exact. The
// most senders node 0's memory holds pass and run without panicking; one
// more is rejected.
func TestValidateMemoryBound(t *testing.T) {
	spec := func(senders int) *Spec {
		s := incastSpec()
		s.Nodes = senders + 1
		s.Topology = ""
		c := &s.Cohorts[0]
		c.Clients = senders
		c.Duration = units.Microsecond
		c.Src = make([]int, senders)
		for i := range c.Src {
			c.Src[i] = i + 1
		}
		return s
	}
	fit := int(node.MemBytes / uct.EpTargetBytes(64))
	if err := spec(fit + 1).Validate(); err == nil || !strings.Contains(err.Error(), "memory") {
		t.Fatalf("%d senders into one node: Validate = %v, want a memory error", fit+1, err)
	}
	runSpec(t, spec(fit), config.NoiseOff, 1, RunOpt{})
}

// TestRunRefusesSystemItDoesNotDescribe: Run runs a spec only on the system
// BuildConfig builds for it. A system that differs in its node count,
// resolved topology, NIC rx budget, a link-fault rate or the seed the spec
// sets is refused with one error naming the field.
func TestRunRefusesSystemItDoesNotDescribe(t *testing.T) {
	spec := incastSpec()
	spec.RxBudget = 4
	spec.Seed = 9
	spec.Faults = FaultSpec{DropRate: 1e-3, CorruptRate: 1e-4}
	spec.Cohorts[0].Duration = 20 * units.Microsecond
	for _, tc := range []struct {
		field string
		nodes int
		edit  func(cfg *config.Config)
	}{
		{"nodes", 4, func(cfg *config.Config) {}},
		{"topology", 8, func(cfg *config.Config) { cfg.Topology = topo.Spec{Kind: topo.SingleSwitch} }},
		{"topology", 8, func(cfg *config.Config) { cfg.Topology.Radix = 8 }},
		{"topology", 8, func(cfg *config.Config) { cfg.Topology.Credits = 4 }},
		{"rxbudget", 8, func(cfg *config.Config) { cfg.NICRxBudget = 0 }},
		{"faults.droprate", 8, func(cfg *config.Config) { cfg.Faults.DropRate = 0 }},
		{"faults.corruptrate", 8, func(cfg *config.Config) { cfg.Faults.CorruptRate = 0 }},
		{"seed", 8, func(cfg *config.Config) { cfg.Seed = 1 }},
	} {
		cfg := spec.BuildConfig(config.NoiseOff, 1)
		tc.edit(cfg)
		sys := node.NewSystem(cfg, tc.nodes)
		_, err := Run(spec, sys, RunOpt{})
		sys.Shutdown()
		if err == nil || strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), "spec wants "+tc.field+" ") {
			t.Errorf("a system differing in %s: Run = %v, want one line naming the field", tc.field, err)
		}
	}
	res := runSpec(t, spec, config.NoiseOff, 1, RunOpt{})
	if c := &res.Cohorts[0]; c.Offered == 0 || c.Delivered+c.Failed != c.Offered {
		t.Errorf("the system BuildConfig built: delivered %d + failed %d of %d offered", c.Delivered, c.Failed, c.Offered)
	}
}

// TestMixedTenantsEventsPerMessage gates the kernel events the NoiseOff
// mixed-tenants example (seed 1) fires per delivered message. Its senders
// drain their tails parked on their completion slots, the untapped PCIe
// links send each TLP's DLLPs from one event and reserve the UpdateFC
// arrivals and credit-free ACKs nothing reads yet, and an uncontended
// switch hop is one event, the frame's arrival, with the port's txDone
// reserved: the run fires about 22.2 events per message, against 30.05
// with an event for every txDone and 38.7 with one for every DLLP send
// and UpdateFC arrival too. Most of the rest are hops and TLPs.
func TestMixedTenantsEventsPerMessage(t *testing.T) {
	const maxPerMsg = 24
	spec, err := LoadSpec("../../examples/workload/mixed-tenants.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sys := node.NewSystem(spec.BuildConfig(config.NoiseOff, 1), spec.Nodes)
	defer sys.Shutdown()
	res, err := Run(spec, sys, RunOpt{})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := range res.Cohorts {
		c := &res.Cohorts[i]
		if c.Delivered == 0 || c.Delivered != c.Offered {
			t.Fatalf("cohort %s delivered %d of %d offered", c.Name, c.Delivered, c.Offered)
		}
		delivered += c.Delivered
	}
	perMsg := float64(sys.K.Fired()) / float64(delivered)
	t.Logf("%d events for %d messages: %.2f per message (gate %d)", sys.K.Fired(), delivered, perMsg, maxPerMsg)
	if perMsg > maxPerMsg {
		t.Errorf("%.2f kernel events per delivered message, gate %d: does a txDone, a DLLP, a tap or a poll loop fire events again?", perMsg, maxPerMsg)
	}
}
