package workload

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/rng"
	"breakband/internal/sim"
	"breakband/internal/stats"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// RunOpt selects recording and replay for a workload run.
type RunOpt struct {
	// Record captures every offered message into Result.Trace.
	Record bool
	// Replay, when non-nil, drives the run from a recorded trace instead of
	// the arrival generators. The trace must be CompatibleWith the spec.
	// Record may be combined with Replay; a replayed re-recording encodes
	// byte-identically to the original.
	Replay *Trace
}

// Recovery aggregates a cohort's transport-recovery counters across its
// send-side QPs (labelled "wl/<cohort>" on the NIC).
type Recovery struct {
	AckTimeouts uint64
	SeqNaksRecv uint64
	RNRNaksRecv uint64
	Retransmits uint64
}

// Any reports whether any recovery machinery fired.
func (r Recovery) Any() bool {
	return r.AckTimeouts+r.SeqNaksRecv+r.RNRNaksRecv+r.Retransmits > 0
}

// CohortResult is one cohort's delivery accounting for a run.
type CohortResult struct {
	Name string
	// Offered counts generated arrivals; Delivered successful completions;
	// Failed operations retired by error CQEs or refused posts.
	Offered, Delivered, Failed int
	// Bytes is the delivered payload volume.
	Bytes uint64
	// FirstAt is the earliest offered arrival; LastDone the latest
	// completion.
	FirstAt, LastDone units.Time
	// Latency samples per-message arrival-to-completion times in
	// nanoseconds (queueing delay behind a backlogged injector included —
	// open-loop latency, not bare wire time).
	Latency stats.Sample
	// Recovery aggregates the cohort's transport-recovery counters.
	Recovery Recovery
}

// Goodput reports delivered bytes per second over the cohort's active span.
func (c *CohortResult) Goodput() float64 {
	span := c.LastDone - c.FirstAt
	if span <= 0 {
		return 0
	}
	return float64(c.Bytes) / span.Seconds()
}

// Result is a completed workload run.
type Result struct {
	Name    string
	Seed    uint64
	Cohorts []CohortResult
	// Elapsed is the full simulated span (first arrival to last
	// completion across cohorts).
	Elapsed units.Time
	// Trace is the recorded trace when RunOpt.Record was set.
	Trace *Trace
}

// Run compiles the spec into injectors on sys, runs the simulation to
// completion and reports per-cohort results. The system must have been
// built for the spec (node count equal to spec.Nodes — BuildConfig +
// node.NewSystem is the canonical recipe). Run validates the spec first and
// never panics on bad input.
func Run(spec *Spec, sys *node.System, opt RunOpt) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(sys.Nodes) != spec.Nodes {
		return nil, fmt.Errorf("workload %q: spec wants %d nodes, system has %d", spec.Name, spec.Nodes, len(sys.Nodes))
	}
	if opt.Replay != nil {
		if err := opt.Replay.CompatibleWith(spec); err != nil {
			return nil, err
		}
	}
	b, err := build(spec, sys, opt)
	if err != nil {
		return nil, err
	}
	sys.Run()
	return b.collect()
}

// builder wires a validated spec into injector tasks on a system.
type builder struct {
	spec *Spec
	sys  *node.System
	cfg  *config.Config
	res  *Result

	recvWorkers map[int]*uct.Worker
	injectors   []*injectFrame
	finished    int
}

func build(spec *Spec, sys *node.System, opt RunOpt) (*builder, error) {
	cfg := sys.Cfg
	b := &builder{
		spec:        spec,
		sys:         sys,
		cfg:         cfg,
		recvWorkers: make(map[int]*uct.Worker),
		res:         &Result{Name: spec.Name, Seed: cfg.Seed},
	}
	b.res.Cohorts = make([]CohortResult, len(spec.Cohorts))

	var rec *Trace
	if opt.Record {
		rec = newTrace(spec, cfg.Seed)
		b.res.Trace = rec
	}

	// Partition replay records per (cohort, source node), preserving the
	// recorded order within each injector.
	var replayParts map[int64][]int32
	if opt.Replay != nil {
		replayParts = make(map[int64][]int32)
		for i := range opt.Replay.Recs {
			r := &opt.Replay.Recs[i]
			c := &spec.Cohorts[r.Cohort]
			key := int64(r.Cohort)<<32 | int64(c.ClientSrc(int(r.Client)))
			replayParts[key] = append(replayParts[key], int32(i))
		}
	}

	for ci := range spec.Cohorts {
		c := &spec.Cohorts[ci]
		b.res.Cohorts[ci].Name = c.Name
		for _, src := range distinctInts(c.Src) {
			f, err := b.newInjector(int32(ci), c, src, opt, rec, replayParts)
			if err != nil {
				return nil, err
			}
			if f == nil {
				continue // no clients landed on this source
			}
			b.injectors = append(b.injectors, f)
			sys.K.SpawnTask(fmt.Sprintf("wl.%s.n%d", c.Name, src), f)
		}
	}
	return b, nil
}

func (b *builder) recvWorker(dst int) *uct.Worker {
	w := b.recvWorkers[dst]
	if w == nil {
		w = uct.NewWorker(b.sys.Nodes[dst], b.cfg)
		w.SetRand(b.cfg.Rand(fmt.Sprintf("workload/rx/node%d", dst)))
		b.recvWorkers[dst] = w
	}
	return w
}

func distinctInts(xs []int) []int {
	var out []int
	for _, x := range xs {
		dup := false
		for _, o := range out {
			if o == x {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

func (b *builder) newInjector(ci int32, c *Cohort, src int, opt RunOpt, rec *Trace, replayParts map[int64][]int32) (*injectFrame, error) {
	f := &injectFrame{
		b:     b,
		cidx:  ci,
		res:   &b.res.Cohorts[ci],
		cfg:   b.cfg,
		clock: newArrivalClock(c),
		sizes: newSizeGen(&c.Size),
		rec:   rec,
	}
	f.w = uct.NewWorker(b.sys.Nodes[src], b.cfg)
	f.w.SetRand(b.cfg.Rand(fmt.Sprintf("workload/%s/node%d", c.Name, src)))
	f.w.SetSendCompletion(f.onComplete)

	// One endpoint per distinct destination of the cohort; dstToEp maps a
	// node id to its endpoint ordinal.
	dsts := distinctInts(c.Dst)
	f.dstToEp = make([]int32, b.spec.Nodes)
	for i := range f.dstToEp {
		f.dstToEp[i] = -1
	}
	bufBytes := c.Size.MaxBytes()
	if bufBytes < 64 {
		bufBytes = 64
	}
	for _, dst := range dsts {
		ep := f.w.NewEp(uct.PIOInline, 1)
		ep.SetLabel("wl/" + c.Name)
		rw := b.recvWorker(dst)
		rep := rw.NewEp(uct.PIOInline, 1)
		rep.SetLabel("wl/" + c.Name + "/rx")
		uct.Connect(ep, rep)
		tgt := b.sys.Nodes[dst].Mem.Alloc(
			fmt.Sprintf("wl.%s.n%d->n%d", c.Name, src, dst), uint64(bufBytes), 64)
		ep.RemoteBuf = tgt.Base
		f.dstToEp[dst] = int32(len(f.eps))
		f.eps = append(f.eps, ep)
		f.dstOf = append(f.dstOf, int32(dst))
		f.rings = append(f.rings, compRing{buf: make([]compEntry, b.cfg.Bench.SQDepth)})
	}
	f.buf = make([]byte, bufBytes)

	if opt.Replay != nil {
		f.tr = opt.Replay
		f.recs = replayParts[int64(ci)<<32|int64(src)]
		if len(f.recs) == 0 {
			return nil, nil
		}
		return f, nil
	}

	// Generate mode: seed one clientState per cohort client homed on this
	// source. Each client's first arrival is its stream's first draw from
	// the cohort start.
	for i := 0; i < c.Clients; i++ {
		if c.ClientSrc(i) != src {
			continue
		}
		cs := clientState{
			rand: *rng.Stream(b.cfg.Seed, fmt.Sprintf("workload/%s/%d", c.Name, i)),
			id:   int32(i),
			ep:   f.dstToEp[c.ClientDst(i)],
		}
		cs.next = f.clock.next(c.Start, &cs.rand)
		if cs.next >= f.clock.end {
			continue // window too short for this client's first draw
		}
		f.heap.clients = append(f.heap.clients, cs)
	}
	if len(f.heap.clients) == 0 {
		return nil, nil
	}
	f.heap.slots = make([]int32, len(f.heap.clients))
	for i := range f.heap.slots {
		f.heap.slots[i] = int32(i)
	}
	f.heap.init()
	return f, nil
}

// compEntry is one in-flight message awaiting its send completion.
type compEntry struct {
	at   units.Time
	size int32
}

// compRing is a fixed-capacity FIFO parallel to the NIC's per-QP completion
// order. Capacity is the send-queue depth: the post path spins on a full
// queue, so in-flight never exceeds it.
type compRing struct {
	buf     []compEntry
	head, n int
}

func (r *compRing) push(e compEntry) {
	if r.n == len(r.buf) {
		panic("workload: completion ring overflow")
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
}

func (r *compRing) pop() compEntry {
	if r.n == 0 {
		panic("workload: completion ring underflow")
	}
	e := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e
}

// injectFrame is one injector: the paced open-loop sender for all clients of
// one cohort homed on one source node. It runs as a goroutine-free sim.Task
// continuation; the steady-state loop allocates nothing.
type injectFrame struct {
	b     *builder
	cidx  int32
	res   *CohortResult
	cfg   *config.Config
	w     *uct.Worker
	eps   []*uct.Ep
	dstOf []int32 // endpoint ordinal -> destination node
	rings []compRing
	clock arrivalClock
	sizes sizeGen
	heap  clientHeap
	buf   []byte

	dstToEp []int32 // node id -> endpoint ordinal (-1 when unused)

	// Replay state (generate mode when recs is nil).
	tr   *Trace
	recs []int32
	ri   int

	rec *Trace // recording sink (nil when not recording)

	pAt   units.Time
	pSize int32
	pEp   int32
	pc    int
	done  bool
}

// nextGen pops the earliest client arrival and redraws its clock.
func (f *injectFrame) nextGen() (at units.Time, size int32, epi, client int32, ok bool) {
	if f.heap.len() == 0 {
		return 0, 0, 0, 0, false
	}
	ci := f.heap.min()
	c := &f.heap.clients[ci]
	at, client, epi = c.next, c.id, c.ep
	size = int32(f.sizes.draw(&c.rand))
	nxt := f.clock.next(at, &c.rand)
	if nxt >= f.clock.end {
		f.heap.pop()
	} else {
		c.next = nxt
		f.heap.fix()
	}
	return at, size, epi, client, true
}

// nextReplay walks this injector's slice of the recorded trace.
func (f *injectFrame) nextReplay() (at units.Time, size int32, epi, client int32, ok bool) {
	if f.ri >= len(f.recs) {
		return 0, 0, 0, 0, false
	}
	r := &f.tr.Recs[f.recs[f.ri]]
	f.ri++
	return r.At, r.Size, f.dstToEp[r.Dst], r.Client, true
}

func (f *injectFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0: // loop head: admit the next arrival
			var at units.Time
			var size, epi, client int32
			var ok bool
			if f.recs != nil {
				at, size, epi, client, ok = f.nextReplay()
			} else {
				at, size, epi, client, ok = f.nextGen()
			}
			if !ok {
				f.pc = 3
				continue
			}
			// Pace to the arrival; a backlogged injector (fabric
			// backpressure pushed it past the deadline) posts immediately,
			// open-loop.
			if d := at - t.Now(); d > 0 {
				t.Advance(d)
			}
			if f.rec != nil {
				f.rec.add(f.cidx, client, at, size, f.dstOf[epi])
			}
			if f.res.Offered == 0 || at < f.res.FirstAt {
				f.res.FirstAt = at
			}
			f.res.Offered++
			f.pAt, f.pSize, f.pEp = at, size, epi
			f.pc = 1
			f.eps[epi].StartPut(t, f.buf[:size])
			return
		case 1: // post returned: enqueue completion bookkeeping
			if err := f.eps[f.pEp].LastPost(); err != nil {
				f.res.Failed++
			} else {
				f.rings[f.pEp].push(compEntry{at: f.pAt, size: f.pSize})
			}
			f.pc = 2
			f.w.StartProgress(t)
			return
		case 2:
			f.pc = 0
		case 3: // drain the in-flight tail
			for _, ep := range f.eps {
				if ep.InFlight() > 0 {
					f.w.StartProgress(t)
					return
				}
			}
			f.done = true
			f.b.finished++
			t.Return()
			return
		}
	}
}

// onComplete is the worker's send-completion callback: completions retire
// FIFO per endpoint, so each pops its ring in order.
func (f *injectFrame) onComplete(t *sim.Task, ep *uct.Ep, count int, err error) {
	var ring *compRing
	for i, e := range f.eps {
		if e == ep {
			ring = &f.rings[i]
			break
		}
	}
	if ring == nil {
		panic("workload: completion for unknown endpoint")
	}
	now := t.Now()
	for i := 0; i < count; i++ {
		e := ring.pop()
		if err != nil {
			f.res.Failed++
			continue
		}
		f.res.Delivered++
		f.res.Bytes += uint64(e.size)
		f.res.Latency.Add((now - e.at).Ns())
		if now > f.res.LastDone {
			f.res.LastDone = now
		}
	}
}

// collect assembles the result after the kernel ran to completion.
func (b *builder) collect() (*Result, error) {
	for _, f := range b.injectors {
		if !f.done {
			return nil, fmt.Errorf("workload %q: injector for cohort %q did not finish (deadlocked fabric?)",
				b.spec.Name, b.spec.Cohorts[f.cidx].Name)
		}
		rec := &f.res.Recovery
		for _, ep := range f.eps {
			qp := ep.QP()
			rec.AckTimeouts += qp.AckTimeouts
			rec.SeqNaksRecv += qp.SeqNaksRecv
			rec.RNRNaksRecv += qp.RNRNaksRecv
			rec.Retransmits += qp.Retransmits + qp.RnrRetransmits
		}
	}
	var first, last units.Time
	firstSet := false
	for i := range b.res.Cohorts {
		c := &b.res.Cohorts[i]
		if c.Offered == 0 {
			continue
		}
		if !firstSet || c.FirstAt < first {
			first, firstSet = c.FirstAt, true
		}
		if c.LastDone > last {
			last = c.LastDone
		}
	}
	if firstSet {
		b.res.Elapsed = last - first
	}
	return b.res, nil
}
