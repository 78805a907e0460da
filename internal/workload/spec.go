package workload

import (
	"fmt"
	"math"
	"slices"

	"breakband/internal/config"
	"breakband/internal/faults"
	"breakband/internal/node"
	"breakband/internal/topo"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// Arrival process names accepted by ArrivalSpec.Process.
const (
	ProcPoisson  = "poisson"
	ProcGamma    = "gamma"
	ProcWeibull  = "weibull"
	ProcPeriodic = "periodic"
)

// Size distribution names accepted by SizeSpec.Dist.
const (
	SizeDistFixed     = "fixed"
	SizeDistUniform   = "uniform"
	SizeDistLogNormal = "lognormal"
	SizeDistChoice    = "choice"
)

// MaxMsgBytes bounds a single workload message: everything up to the UCT
// bcopy ceiling posts as one put.
const MaxMsgBytes = uct.MaxBcopy

// Bounds the picosecond arrival clock sets on a cohort's arrival process.
const (
	// minShape is the smallest gamma or weibull shape: below it most
	// draws fall under one picosecond and the clock stops advancing.
	minShape = 0.1
	// maxRate is the highest per-client arrival rate, after envelope
	// scaling: one arrival per picosecond.
	maxRate = 1e12
)

// Spec is a declarative workload: a topology plus a set of client cohorts.
// Specs are plain data — parse one with ParseSpec/LoadSpec or build it
// directly — and must pass Validate before compiling into injectors.
type Spec struct {
	// Name labels the workload in reports and traces.
	Name string
	// Nodes is the host count of the simulated system (>= 2).
	Nodes int
	// Topology is a topo kind name: auto, backtoback, switch or fattree.
	// Empty means auto.
	Topology string
	// Radix is the fat-tree switch radix (0 = smallest that fits).
	Radix int
	// Credits is the per-link credit budget (0 = topo.DefaultCredits).
	Credits int
	// RxBudget bounds each NIC's receive-side pend buffering
	// (config.Config.NICRxBudget; 0 = unbounded).
	RxBudget int
	// Seed overrides the run seed when nonzero.
	Seed uint64
	// Faults optionally enables stochastic link faults for the run.
	Faults FaultSpec
	// Cohorts are the client populations offering traffic.
	Cohorts []Cohort
}

// FaultSpec is the subset of the fault schedule a workload spec can enable:
// stochastic per-frame link faults. Scripted faults (flaps, crashes) stay
// CLI/test territory.
type FaultSpec struct {
	DropRate    float64
	CorruptRate float64
}

// Cohort is one client population: every client shares the arrival process,
// size distribution and active window, and maps round-robin onto the Src and
// Dst node sets (client i sends from Src[i%len(Src)] to Dst[i%len(Dst)]).
type Cohort struct {
	Name    string
	Clients int
	// Src and Dst are node indices in [0, Spec.Nodes).
	Src, Dst []int
	// Start and Duration bound the cohort's offered-traffic window:
	// arrivals are generated in [Start, Start+Duration).
	Start    units.Time
	Duration units.Time
	Arrival  ArrivalSpec
	Size     SizeSpec
	// Envelope optionally modulates the arrival rate with
	// piecewise-constant factors; outside every window the factor is 1.
	Envelope []EnvelopeWindow
}

// ArrivalSpec selects the interarrival process of a cohort's clients.
type ArrivalSpec struct {
	// Process is poisson, gamma, weibull or periodic (each arrival
	// exactly 1/Rate after the last, no random draw).
	Process string
	// Rate is the per-client mean arrival rate in messages per second
	// (before envelope modulation).
	Rate float64
	// Shape is the gamma/weibull shape parameter (ignored for poisson
	// and periodic; 1 reduces both to poisson).
	Shape float64
}

// SizeSpec selects a cohort's message-size distribution. Sizes are bytes in
// [1, MaxMsgBytes].
type SizeSpec struct {
	// Dist is fixed, uniform, lognormal or choice.
	Dist string
	// Bytes is the fixed size (Dist == fixed).
	Bytes int
	// Min and Max bound the uniform draw (Dist == uniform), inclusive.
	Min, Max int
	// Mean and CV parameterize the lognormal draw (Dist == lognormal);
	// draws clamp into [1, MaxMsgBytes].
	Mean, CV float64
	// Choices is the weighted mixture (Dist == choice).
	Choices []SizeChoice
}

// SizeChoice is one element of a weighted size mixture.
type SizeChoice struct {
	Bytes  int
	Weight float64
}

// EnvelopeWindow scales a cohort's arrival rate by Factor over [From, To)
// (cohort-relative times). Windows must not overlap.
type EnvelopeWindow struct {
	From, To units.Time
	Factor   float64
}

// ClientSrc reports the source node of the cohort's client i.
func (c *Cohort) ClientSrc(i int) int { return c.Src[i%len(c.Src)] }

// ClientDst reports the destination node of the cohort's client i.
func (c *Cohort) ClientDst(i int) int { return c.Dst[i%len(c.Dst)] }

// MaxBytes reports an upper bound on the cohort's message size (the buffer
// sizing bound; lognormal clamps at MaxMsgBytes).
func (s *SizeSpec) MaxBytes() int {
	switch s.Dist {
	case SizeDistFixed:
		return s.Bytes
	case SizeDistUniform:
		return s.Max
	case SizeDistLogNormal:
		return MaxMsgBytes
	case SizeDistChoice:
		max := 0
		for _, c := range s.Choices {
			if c.Bytes > max {
				max = c.Bytes
			}
		}
		return max
	}
	return 0
}

// TopoSpec resolves the spec's topology fields into a topo.Spec.
func (s *Spec) TopoSpec() (topo.Spec, error) {
	kind := topo.Auto
	if s.Topology != "" {
		var err error
		kind, err = topo.ParseKind(s.Topology)
		if err != nil {
			return topo.Spec{}, err
		}
	}
	return topo.Spec{Kind: kind, Radix: s.Radix, Credits: s.Credits}, nil
}

// End reports the cohort-absolute end of the offered-traffic window.
func (c *Cohort) End() units.Time { return c.Start + c.Duration }

// TotalClients reports the client count summed over cohorts.
func (s *Spec) TotalClients() int {
	n := 0
	for i := range s.Cohorts {
		n += s.Cohorts[i].Clients
	}
	return n
}

// Validate checks the whole spec up front and reports the first problem
// found, or nil. A validated spec is guaranteed to compile into injectors
// without panicking, on the system BuildConfig and node.NewSystem build for
// it: no node opens more endpoints than its memory holds.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if s.Nodes < 2 {
		return fmt.Errorf("workload %q: nodes must be >= 2, got %d", s.Name, s.Nodes)
	}
	ts, err := s.TopoSpec()
	if err != nil {
		return fmt.Errorf("workload %q: %v", s.Name, err)
	}
	if err := ts.Validate(s.Nodes); err != nil {
		return fmt.Errorf("workload %q: %v", s.Name, err)
	}
	if s.RxBudget < 0 {
		return fmt.Errorf("workload %q: rxbudget must be >= 0, got %d", s.Name, s.RxBudget)
	}
	if err := s.Faults.validate(); err != nil {
		return fmt.Errorf("workload %q: %v", s.Name, err)
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("workload %q: at least one cohort required", s.Name)
	}
	seen := make(map[string]bool, len(s.Cohorts))
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.Name == "" {
			return fmt.Errorf("workload %q: cohort %d needs a name", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload %q: duplicate cohort name %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		if err := c.validate(s.Nodes); err != nil {
			return fmt.Errorf("workload %q: cohort %q: %v", s.Name, c.Name, err)
		}
	}
	return s.checkMemory()
}

// checkMemory rejects a spec with a node that would need more host memory
// for endpoints than it has. It counts what build allocates: per cohort,
// each distinct source opens one endpoint (uct.EpBytes) to every distinct
// destination, and each destination holds a receive endpoint plus a target
// for every distinct source (uct.EpTargetBytes).
func (s *Spec) checkMemory() error {
	type hold struct {
		eps   int
		bytes uint64
	}
	held := make(map[int]hold)
	add := func(node, eps int, per uint64) {
		h := held[node]
		h.eps += eps
		h.bytes += uint64(eps) * per
		held[node] = h
	}
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		srcs, dsts := distinctInts(c.Src), distinctInts(c.Dst)
		for _, src := range srcs {
			add(src, len(dsts), uct.EpBytes())
		}
		for _, dst := range dsts {
			add(dst, len(srcs), uct.EpTargetBytes(c.Size.MaxBytes()))
		}
	}
	nodes := make([]int, 0, len(held))
	for n := range held {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	for _, n := range nodes {
		if h := held[n]; h.bytes > node.MemBytes {
			return fmt.Errorf("workload %q: node %d would open %d endpoints taking %d MiB, but its memory holds %d MiB",
				s.Name, n, h.eps, h.bytes>>20, node.MemBytes>>20)
		}
	}
	return nil
}

func (f *FaultSpec) validate() error {
	fc := faults.Config{DropRate: f.DropRate, CorruptRate: f.CorruptRate}
	if err := fc.Validate(); err != nil {
		return err
	}
	return nil
}

func (c *Cohort) validate(nodes int) error {
	if c.Clients <= 0 {
		return fmt.Errorf("clients must be positive, got %d", c.Clients)
	}
	if len(c.Src) == 0 || len(c.Dst) == 0 {
		return fmt.Errorf("src and dst node sets must be non-empty")
	}
	for _, set := range []struct {
		name  string
		nodes []int
	}{{"src", c.Src}, {"dst", c.Dst}} {
		for _, n := range set.nodes {
			if n < 0 || n >= nodes {
				return fmt.Errorf("%s node %d out of range [0, %d)", set.name, n, nodes)
			}
		}
	}
	// Round-robin assignment repeats with period lcm(|Src|, |Dst|) <=
	// |Src|*|Dst|; checking one period (or every client if fewer) covers
	// all self-sends.
	period := len(c.Src) * len(c.Dst)
	if c.Clients < period {
		period = c.Clients
	}
	for i := 0; i < period; i++ {
		if c.ClientSrc(i) == c.ClientDst(i) {
			return fmt.Errorf("client %d would send to itself (node %d)", i, c.ClientSrc(i))
		}
	}
	if c.Start < 0 {
		return fmt.Errorf("start must be >= 0, got %v", c.Start)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("duration must be positive, got %v", c.Duration)
	}
	if c.Duration > units.MaxTime-c.Start {
		return fmt.Errorf("start %v plus duration %v overflows the picosecond clock", c.Start, c.Duration)
	}
	if err := c.Arrival.validate(); err != nil {
		return err
	}
	if err := c.Size.validate(); err != nil {
		return err
	}
	if err := validateEnvelope(c.Envelope); err != nil {
		return err
	}
	factor := 1.0
	for _, w := range c.Envelope {
		factor = max(factor, w.Factor)
	}
	if peak := c.Arrival.Rate * factor; peak > maxRate {
		return fmt.Errorf("peak arrival rate %v per second exceeds %v, one arrival per picosecond", peak, maxRate)
	}
	return nil
}

func (a *ArrivalSpec) validate() error {
	switch a.Process {
	case ProcPoisson, ProcPeriodic:
	case ProcGamma, ProcWeibull:
		if !(a.Shape >= minShape) || math.IsInf(a.Shape, 0) {
			return fmt.Errorf("%s shape must be finite and at least %v, got %v", a.Process, minShape, a.Shape)
		}
	default:
		return fmt.Errorf("unknown arrival process %q (want poisson, gamma, weibull or periodic)", a.Process)
	}
	if !(a.Rate > 0) || math.IsInf(a.Rate, 0) {
		return fmt.Errorf("arrival rate must be positive and finite, got %v", a.Rate)
	}
	return nil
}

func (s *SizeSpec) validate() error {
	checkBytes := func(what string, b int) error {
		if b < 1 || b > MaxMsgBytes {
			return fmt.Errorf("%s %d outside [1, %d]", what, b, MaxMsgBytes)
		}
		return nil
	}
	switch s.Dist {
	case SizeDistFixed:
		return checkBytes("fixed size", s.Bytes)
	case SizeDistUniform:
		if err := checkBytes("uniform min", s.Min); err != nil {
			return err
		}
		if err := checkBytes("uniform max", s.Max); err != nil {
			return err
		}
		if s.Min > s.Max {
			return fmt.Errorf("uniform min %d > max %d", s.Min, s.Max)
		}
		return nil
	case SizeDistLogNormal:
		if !(s.Mean >= 1) || s.Mean > MaxMsgBytes || math.IsInf(s.Mean, 0) {
			return fmt.Errorf("lognormal mean %v outside [1, %d]", s.Mean, MaxMsgBytes)
		}
		if !(s.CV > 0) || math.IsInf(s.CV, 0) {
			return fmt.Errorf("lognormal cv must be positive and finite, got %v", s.CV)
		}
		return nil
	case SizeDistChoice:
		if len(s.Choices) == 0 {
			return fmt.Errorf("choice distribution needs at least one entry")
		}
		for i, c := range s.Choices {
			if err := checkBytes(fmt.Sprintf("choice %d size", i), c.Bytes); err != nil {
				return err
			}
			if !(c.Weight > 0) || math.IsInf(c.Weight, 0) {
				return fmt.Errorf("choice %d weight must be positive and finite, got %v", i, c.Weight)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown size distribution %q (want fixed, uniform, lognormal or choice)", s.Dist)
	}
}

func validateEnvelope(ws []EnvelopeWindow) error {
	for i, w := range ws {
		if w.From < 0 || w.To <= w.From {
			return fmt.Errorf("envelope window %d: need 0 <= from < to, got [%v, %v)", i, w.From, w.To)
		}
		if !(w.Factor > 0) || math.IsInf(w.Factor, 0) {
			return fmt.Errorf("envelope window %d: factor must be positive and finite, got %v", i, w.Factor)
		}
		for j := 0; j < i; j++ {
			if w.From < ws[j].To && ws[j].From < w.To {
				return fmt.Errorf("envelope windows %d and %d overlap ([%v, %v) vs [%v, %v))",
					j, i, ws[j].From, ws[j].To, w.From, w.To)
			}
		}
	}
	return nil
}

// BuildConfig compiles a validated spec into a run configuration: topology,
// credits, NIC rx budget and fault rates land in the returned Config. The
// spec's Seed (when nonzero) overrides seed. Call Validate first —
// BuildConfig trusts its input.
func (s *Spec) BuildConfig(noise config.NoiseLevel, seed uint64) *config.Config {
	if s.Seed != 0 {
		seed = s.Seed
	}
	cfg := config.TX2CX4(noise, seed, true)
	ts, err := s.TopoSpec()
	if err != nil {
		panic("workload: BuildConfig on unvalidated spec: " + err.Error())
	}
	cfg.Topology = ts
	cfg.NICRxBudget = s.RxBudget
	cfg.Faults.DropRate = s.Faults.DropRate
	cfg.Faults.CorruptRate = s.Faults.CorruptRate
	return cfg
}
