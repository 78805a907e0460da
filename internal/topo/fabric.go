package topo

import (
	"fmt"
	"strings"

	"breakband/internal/arena"
	"breakband/internal/fabric"
	"breakband/internal/faults"
	"breakband/internal/fifo"
	"breakband/internal/sim"
	"breakband/internal/trace"
	"breakband/internal/units"
)

// Fabric is the compiled topology, the network every NIC drives: frames
// travel host egress -> switch chain -> destination host, with
// per-output-port serialization queues and link-level credits (see the
// package doc). Two hosts on the back-to-back or single-switch spec take
// the paper's calibrated two-endpoint path instead (the ideal tier).
type Fabric struct {
	k    *sim.Kernel
	cfg  fabric.Config
	spec Spec

	ports  map[int]fabric.Port
	frames *arena.Arena[fabric.Frame]
	// payloads is the system's one pool of message payload buffers, which
	// frames, retransmit queues and TLPs share (see fabric.Frame).
	payloads *arena.BufPool
	// attached[id] is the sendable fast path: id is routed and has a
	// port. Attached-but-unrouted ids live only in the ports map.
	attached []bool

	// Ideal two-endpoint tier (nil switches): one egress serialization,
	// then a constant flight time (WireProp, plus SwitchLatency on the
	// single-switch shape).
	ideal     bool
	flight    units.Time
	busyUntil []units.Time
	// flts is the ideal tier's per-egress fault state, indexed by host id
	// (nil without an injector; the engine tier hangs fault state off its
	// output ports instead).
	flts []*faults.Link

	// Engine tier.
	hosts    []outPort // per-host injection egress, indexed by host id
	switches []*Switch
	links    []*link
	hopProp  units.Time // per-cable flight time (WireProp / 2)

	// Fat-tree shape, kept for ECMP failover rerouting (zero/nil on other
	// topologies).
	ftHpl    int
	ftSpines int
	ftLeaves []*Switch

	// OnDepth, when set, observes every output-port queue depth change
	// (port is the port's compiled name, e.g. "sw0.port3"). Leave nil on
	// hot paths; the examples use it to plot queue depth over time.
	OnDepth func(at units.Time, port string, depth int)

	// tr is the kernel's flight recorder (nil = tracing disabled; every
	// emit site below is behind one pointer test). Frame lifecycle events
	// are emitted only for frames carrying a trace id (Frame.TID != 0,
	// stamped by the sending NIC).
	tr *trace.Tracer
	// idealPorts holds the interned host-egress port ids of the ideal
	// two-endpoint tier (nil when tracing is disabled or ports exist).
	idealPorts []int32

	deliverFn func(any)
}

// Switch is one compiled store-and-forward switch.
type Switch struct {
	name string
	// route maps destination host id -> index into outs.
	route []int32
	outs  []outPort
}

// Name reports the switch's compiled name ("sw0", "leaf1", "spine0").
func (s *Switch) Name() string { return s.name }

// link is one directed cable: the downstream end of exactly one outPort.
type link struct {
	// id is the link's index in Fabric.links (frames record id+1 in
	// their HopRef while they occupy the final hop's buffer credit).
	id int32
	// prop is the cable flight time, plus the switch forwarding latency
	// when the downstream is a switch (folded into the arrival event).
	prop    units.Time
	credits int
	// reserved counts the reserved txDones at dstSw's ports whose frames
	// hold a credit of this link (see settleReturns).
	reserved int
	dstSw    *Switch
	dstHost  int
	// up is the port driving this link; returning credits kicks it.
	up *outPort
	// arriveFn is the link's bound continuation: the per-frame hop event
	// carries only the *Frame, closure-free on the steady-state path.
	arriveFn func(any)
}

// qent is one queued frame plus the inbound link whose downstream buffer
// it occupies (nil at the host egress, where frames enter the fabric).
type qent struct {
	f  *fabric.Frame
	in *link
}

// outPort is one serializing egress driving a link: a host NIC's injection
// port or a switch output port. The port transmits one frame at a time;
// everything else waits in q, so queue depth is the true congestion
// signal.
type outPort struct {
	fab  *Fabric
	name string
	link *link
	q    fifo.Queue[qent]
	// cur is the frame on the wire while busy; txDoneFn is the bound
	// transmission-complete continuation (one closure per port, none per
	// frame).
	cur      qent
	busy     bool
	txDoneFn func(any)
	// reserved marks cur's txDone as a kernel reservation, res, with the
	// frame's arrival already queued as early, rather than a real event
	// (see kick). out is cur's fault outcome, drawn at kick. contended
	// records that the last frame pushed here found the port sending:
	// until a push finds it idle, frames are likely to be pushed behind
	// the next one too, so its txDone stays real rather than be reserved
	// and then demoted, which costs more than the real event.
	reserved  bool
	res       sim.Reservation
	early     sim.EventRef
	out       faults.Outcome
	contended bool

	// flt is the port's fault-injection state (nil when no injector was
	// adopted or the schedule never touches this port: one pointer test on
	// the transmit path). down marks a flapped-dead link: the port
	// transmits nothing, queued and arriving frames are dropped, and —
	// on fat-tree up-links — ECMP routes divert around it. eager marks a
	// port with scripted flaps: it keeps every txDone a real event and
	// draws each fault there, since a frame a flap kills mid-transmission
	// must consume no fault ordinal.
	flt   *faults.Link
	down  bool
	eager bool

	// trID is the port's interned trace id (-1 when tracing is disabled);
	// isUp marks a fat-tree leaf uplink, where pushing a frame records the
	// ECMP route decision.
	trID int32
	isUp bool

	forwarded    uint64
	maxQueue     int
	creditStalls uint64
	// busyTime accumulates wire-serialization occupancy; divided by a
	// measurement window it is the port's utilization.
	busyTime units.Time
}

// push enqueues e, tracks queue-depth stats, and starts transmission if
// the port is idle. Pushing at a dead (flapped-down) port drops the frame
// on the spot.
func (p *outPort) push(e qent) {
	if p.down {
		if p.flt != nil {
			p.flt.CountDrop()
		}
		p.drop(e)
		return
	}
	p.settle()
	p.demote()
	p.contended = p.busy
	p.q.Push(e)
	if p.q.Len() > p.maxQueue {
		p.maxQueue = p.q.Len()
	}
	if p.fab.OnDepth != nil {
		p.fab.OnDepth(p.fab.k.Now(), p.name, p.q.Len())
	}
	if tr := p.fab.tr; tr != nil && e.f.TID != 0 {
		at := p.fab.k.Now()
		if p.isUp {
			tr.Emit(trace.Event{At: at, Kind: trace.EvRoute, TID: e.f.TID,
				Port: p.trID, Node: -1, Arg: trace.ArgMsg(0, 0, uint32(e.f.Dst))})
		}
		tr.Emit(trace.Event{At: at, Kind: trace.EvQueue, TID: e.f.TID, Port: p.trID, Node: -1})
	}
	p.kick()
}

// kick starts the next queued transmission if the port is idle and the
// downstream link has a buffer credit: consume the credit, put the frame
// on the wire for its serialization time. Dead ports transmit nothing
// (their credits sit quarantined until the link comes back).
//
// The frame's txDone is reserved, and its arrival queued at once
// (sim.Kernel.AtFor), when nothing reads what the txDone changes before
// it is due: the frame draws no fault (the draw moves here; a fault's
// txDone counts it), the queue behind it is empty, and the port upstream
// is not stalled on the credit the frame holds. Otherwise it is a real
// event, and so on an eager port and on a contended one.
func (p *outPort) kick() {
	p.settle()
	if p.busy || p.down || p.q.Len() == 0 {
		return
	}
	if p.link.credits == 0 && !p.link.settleReturns() {
		p.creditStalls++
		if tr := p.fab.tr; tr != nil {
			if f := p.q.At(0).f; f.TID != 0 {
				tr.Emit(trace.Event{At: p.fab.k.Now(), Kind: trace.EvStall,
					TID: f.TID, Port: p.trID, Node: -1})
			}
		}
		return
	}
	e := p.q.Pop()
	if p.fab.OnDepth != nil {
		p.fab.OnDepth(p.fab.k.Now(), p.name, p.q.Len())
	}
	if tr := p.fab.tr; tr != nil && e.f.TID != 0 {
		tr.Emit(trace.Event{At: p.fab.k.Now(), Kind: trace.EvTxStart, TID: e.f.TID,
			Port: p.trID, Node: -1, Arg: trace.ArgMsg(0, e.f.Bytes, uint32(e.f.PSN))})
	}
	p.link.credits--
	p.busy = true
	p.cur = e
	ser := fabric.SerTime(e.f.Bytes)
	p.busyTime += ser
	k := p.fab.k
	txDone := k.Now() + ser
	if !p.eager && p.flt != nil {
		p.out = p.flt.Draw()
	}
	if p.eager || p.out != faults.Deliver || p.q.Len() > 0 || p.contended || (e.in != nil && e.in.upStalled()) {
		k.AtArg(txDone, p.txDoneFn, nil)
		return
	}
	p.reserved = true
	p.res = k.Reserve(txDone)
	p.early = k.AtFor(p.res, txDone+p.link.prop, p.link.arriveFn, e.f, p.txDoneFn)
	if e.in != nil {
		e.in.reserved++
	}
}

// settle applies a due reserved txDone: the frame has left, the port is
// idle and the inbound credit is back. The reservation rules leave
// nothing else for the real event to do: no frame waits behind it, and
// the port upstream is not stalled on the credit.
func (p *outPort) settle() {
	if !p.reserved || !p.fab.k.Due(p.res) {
		return
	}
	e := p.cur
	p.unreserve()
	p.cur = qent{}
	p.busy = false
	p.forwarded++
	if e.in != nil {
		e.in.credits++
	}
}

// demote makes a reserved txDone that is not due a real event, which
// queues the arrival as txDone does, before something reads what it
// changes.
func (p *outPort) demote() {
	if !p.reserved {
		return
	}
	p.fab.k.Demote(p.early)
	p.unreserve()
}

// unreserve marks cur's txDone as no longer a pending reservation.
func (p *outPort) unreserve() {
	p.reserved = false
	if in := p.cur.in; in != nil {
		in.reserved--
	}
}

// upStalled reports whether the port driving lk waits for one of its
// credits: up, idle, with frames queued and none left.
func (lk *link) upStalled() bool {
	u := lk.up
	return lk.credits == 0 && !u.busy && !u.down && u.q.Len() > 0
}

// settleReturns settles the due reserved txDones that return credits to
// lk, and reports whether any credit is back. When none is, it demotes
// the rest: the port driving lk stalls, and their real events restart
// it.
func (lk *link) settleReturns() bool {
	if lk.reserved == 0 {
		return false
	}
	outs := lk.dstSw.outs
	for i := range outs {
		if q := &outs[i]; q.reserved && q.cur.in == lk {
			q.settle()
		}
	}
	if lk.credits > 0 {
		return true
	}
	for i := range outs {
		if q := &outs[i]; q.reserved && q.cur.in == lk {
			q.demote()
		}
	}
	return false
}

// drop loses e at this port: the inbound buffer credit it held returns
// (so upstream ports are not wedged on a dead path) and the frame is
// released — pooled frames go back to the arena, so pool-drain checks
// hold under faults.
func (p *outPort) drop(e qent) {
	if tr := p.fab.tr; tr != nil && e.f.TID != 0 {
		tr.Emit(trace.Event{At: p.fab.k.Now(), Kind: trace.EvDrop,
			TID: e.f.TID, Port: p.trID, Node: -1})
	}
	if e.in != nil {
		e.in.credits++
		e.in.up.kick()
	}
	e.f.Release()
}

// txDone fires when the tail of cur leaves the port: the frame flies the
// cable (plus switch forwarding when the downstream is a switch), the
// inbound credit the frame was holding returns (possibly restarting a
// stalled upstream port), and the next queued frame starts. The fault
// takes effect and is counted here — after serialization, which a lost
// frame still consumes — so a drop vanishes from the wire (its downstream
// buffer credit returns at once) and a corruption flies on to die at the
// next store-and-forward CRC check. It is also the real event of a
// reserved txDone demoted before it was due.
func (p *outPort) txDone(any) {
	if p.reserved {
		p.unreserve()
	}
	e := p.cur
	p.cur = qent{}
	p.busy = false
	p.forwarded++
	lk := p.link
	if p.down {
		// The link died mid-transmission: the frame is lost.
		if p.flt != nil {
			p.flt.CountDrop()
		}
		lk.credits++
		p.drop(e)
		return
	}
	out := p.out
	if p.eager && p.flt != nil {
		out = p.flt.Draw()
	}
	p.out = faults.Deliver
	if out != faults.Deliver {
		p.flt.Count(out)
	}
	switch out {
	case faults.Drop:
		lk.credits++
		p.drop(e)
		p.kick()
		return
	case faults.Corrupt:
		e.f.Corrupted = true
	}
	p.fab.k.AtArg(p.fab.k.Now()+lk.prop, lk.arriveFn, e.f)
	if e.in != nil {
		e.in.credits++
		e.in.up.kick()
	}
	p.kick()
}

// setDown flaps the port's link dead: queued frames drop (their inbound
// credits return), nothing further transmits, and — where the topology
// has redundant paths — routes divert around the port.
func (p *outPort) setDown() {
	if p.down {
		return
	}
	p.down = true
	if p.flt != nil {
		p.flt.CountFlap()
	}
	for p.q.Len() > 0 {
		e := p.q.Pop()
		if p.flt != nil {
			p.flt.CountDrop()
		}
		p.drop(e)
	}
	if p.fab.OnDepth != nil {
		p.fab.OnDepth(p.fab.k.Now(), p.name, 0)
	}
	p.fab.rehashRoutes()
}

// setUp restores a flapped port: routes rehash back to the default ECMP
// spread and any traffic that arrived meanwhile starts draining.
func (p *outPort) setUp() {
	if !p.down {
		return
	}
	p.down = false
	p.fab.rehashRoutes()
	p.kick()
}

// NewFabric compiles spec for the given host count on kernel k. Wire
// parameters (serialization, propagation, switch forwarding latency) come
// from cfg; whether a path crosses a switch is the spec's choice alone.
func NewFabric(k *sim.Kernel, cfg fabric.Config, spec Spec, hosts int) *Fabric {
	spec, err := spec.Resolve(hosts)
	if err != nil {
		panic("topo: " + err.Error())
	}
	t := &Fabric{
		k:        k,
		cfg:      cfg,
		spec:     spec,
		ports:    make(map[int]fabric.Port),
		payloads: arena.NewBufPool(),
		attached: make([]bool, hosts),
		hopProp:  cfg.WireProp / 2,
		tr:       k.Tracer(),
	}
	t.deliverFn = func(a any) {
		f := a.(*fabric.Frame)
		if f.Corrupted {
			// Destination CRC check on the ideal tier.
			if t.tr != nil && f.TID != 0 {
				t.tr.Emit(trace.Event{At: t.k.Now(), Kind: trace.EvDrop,
					TID: f.TID, Port: -1, Node: int16(f.Dst)})
			}
			f.Release()
			return
		}
		if t.tr != nil && f.TID != 0 {
			t.tr.Emit(trace.Event{At: t.k.Now(), Kind: trace.EvDeliver,
				TID: f.TID, Port: -1, Node: int16(f.Dst)})
		}
		t.ports[f.Dst].RxFrame(f)
	}
	t.frames = fabric.NewFrameArena(t.frameReleased)

	if hosts == 2 && spec.Kind != FatTree {
		// Calibrated ideal tier: the paper's two-endpoint model, with the
		// switch (when present) as a cut-through constant and a single
		// delivery event per frame.
		t.ideal = true
		t.flight = cfg.WireProp
		if spec.Kind == SingleSwitch {
			t.flight += cfg.SwitchLatency
		}
		t.busyUntil = make([]units.Time, hosts)
		if t.tr != nil {
			t.idealPorts = make([]int32, hosts)
			for i := range t.idealPorts {
				t.idealPorts[i] = t.tr.Port(fabric.EgressName(i))
			}
		}
		return t
	}

	switch spec.Kind {
	case SingleSwitch:
		t.buildStar(hosts)
	case FatTree:
		t.buildFatTree(hosts, spec.Radix)
	default:
		panic(fmt.Sprintf("topo: %s cannot host %d nodes", spec, hosts))
	}
	return t
}

// wire makes p the driving port of a new link ending at switch sw, or at
// host dst when sw is nil.
func (t *Fabric) wire(p *outPort, name string, sw *Switch, dst int) {
	lk := &link{
		id:      int32(len(t.links)),
		prop:    t.hopProp,
		credits: t.spec.Credits,
		dstSw:   sw,
		dstHost: dst,
		up:      p,
	}
	t.links = append(t.links, lk)
	if sw != nil {
		// Store-and-forward: the frame is fully received at txDone+prop,
		// then the switch's forwarding latency applies before it reaches
		// the output-port queue. Folding both into one event keeps the
		// hop at a single kernel event.
		lk.prop += t.cfg.SwitchLatency
		lk.arriveFn = func(a any) { t.arriveSwitch(lk, a.(*fabric.Frame)) }
	} else {
		lk.arriveFn = func(a any) { t.arriveHost(lk, a.(*fabric.Frame)) }
	}
	p.fab = t
	p.name = name
	p.link = lk
	p.txDoneFn = p.txDone
	p.trID = -1
	if t.tr != nil {
		p.trID = t.tr.Port(name)
	}
}

// arriveSwitch queues a delivered frame at its routed output port. The
// switch is store-and-forward: a frame that arrived with a bad CRC is
// discarded here, its buffer credit returning immediately.
func (t *Fabric) arriveSwitch(lk *link, f *fabric.Frame) {
	if f.Corrupted {
		if t.tr != nil && f.TID != 0 {
			t.tr.Emit(trace.Event{At: t.k.Now(), Kind: trace.EvDrop,
				TID: f.TID, Port: lk.up.trID, Node: -1})
		}
		lk.credits++
		f.Release()
		lk.up.kick()
		return
	}
	sw := lk.dstSw
	sw.outs[sw.route[f.Dst]].push(qent{f: f, in: lk})
}

// arriveHost delivers the frame. The final link's buffer credit stays
// with the frame until the receiver releases it (ownership-based credit
// return: the borrow contract is the buffer accounting, so deferred
// receive processing keeps exerting backpressure — see frameReleased).
// Frames constructed outside the pool have no release hook; their credit
// returns at delivery.
func (t *Fabric) arriveHost(lk *link, f *fabric.Frame) {
	if f.Corrupted {
		// Destination-port CRC check: the NIC never sees the frame.
		if t.tr != nil && f.TID != 0 {
			t.tr.Emit(trace.Event{At: t.k.Now(), Kind: trace.EvDrop,
				TID: f.TID, Port: lk.up.trID, Node: -1})
		}
		lk.credits++
		f.Release()
		lk.up.kick()
		return
	}
	if t.tr != nil && f.TID != 0 {
		t.tr.Emit(trace.Event{At: t.k.Now(), Kind: trace.EvDeliver,
			TID: f.TID, Port: -1, Node: int16(f.Dst)})
	}
	if pooled := f.Ref().Get() == f; pooled {
		f.HopRef = lk.id + 1
		t.ports[f.Dst].RxFrame(f)
		return
	}
	lk.credits++
	t.ports[f.Dst].RxFrame(f)
	lk.up.kick()
}

// frameReleased is the frame arena's release hook: when the receiver
// hands a delivered frame back (Frame.Release), the final-hop buffer
// credit it was occupying returns and the upstream port restarts.
func (t *Fabric) frameReleased(f *fabric.Frame) {
	if f.HopRef == 0 {
		return
	}
	lk := t.links[f.HopRef-1]
	f.HopRef = 0
	lk.credits++
	lk.up.kick()
}

// buildStar compiles the N-host single-switch star.
func (t *Fabric) buildStar(hosts int) {
	sw := &Switch{name: "sw0", route: make([]int32, hosts), outs: make([]outPort, hosts)}
	t.switches = []*Switch{sw}
	t.hosts = make([]outPort, hosts)
	for i := 0; i < hosts; i++ {
		sw.route[i] = int32(i)
		t.wire(&sw.outs[i], fmt.Sprintf("sw0.port%d", i), nil, i)
		t.wire(&t.hosts[i], fmt.Sprintf("host%d.egress", i), sw, -1)
	}
}

// buildFatTree compiles the two-tier folded Clos: radix/2 hosts per leaf,
// radix/2 spines, every leaf cabled to every spine. Up-path spine
// selection is destination-based (spine = dst mod radix/2), so routing is
// deterministic and runs are reproducible.
func (t *Fabric) buildFatTree(hosts, radix int) {
	hpl := radix / 2 // hosts per leaf
	spines := radix / 2
	leaves := (hosts + hpl - 1) / hpl
	// down(l) is leaf l's populated down-port count: the last leaf may
	// hold a partial host complement, and unwired phantom ports must not
	// exist (PortStats iterates every port).
	down := func(l int) int {
		return min(hpl, hosts-l*hpl)
	}

	leafSw := make([]*Switch, leaves)
	for l := range leafSw {
		leafSw[l] = &Switch{
			name:  fmt.Sprintf("leaf%d", l),
			route: make([]int32, hosts),
			outs:  make([]outPort, down(l)+spines),
		}
	}
	spineSw := make([]*Switch, spines)
	for s := range spineSw {
		spineSw[s] = &Switch{
			name:  fmt.Sprintf("spine%d", s),
			route: make([]int32, hosts),
			outs:  make([]outPort, leaves),
		}
	}
	t.switches = make([]*Switch, 0, leaves+spines)
	for _, sw := range leafSw {
		t.switches = append(t.switches, sw)
	}
	for _, sw := range spineSw {
		t.switches = append(t.switches, sw)
	}
	t.ftHpl, t.ftSpines, t.ftLeaves = hpl, spines, leafSw

	t.hosts = make([]outPort, hosts)
	for h := 0; h < hosts; h++ {
		l, d := h/hpl, h%hpl
		t.wire(&leafSw[l].outs[d], fmt.Sprintf("leaf%d.down%d", l, d), nil, h)
		t.wire(&t.hosts[h], fmt.Sprintf("host%d.egress", h), leafSw[l], -1)
	}
	for l, lsw := range leafSw {
		for s, ssw := range spineSw {
			t.wire(&lsw.outs[down(l)+s], fmt.Sprintf("leaf%d.up%d", l, s), ssw, -1)
			lsw.outs[down(l)+s].isUp = true
			t.wire(&ssw.outs[l], fmt.Sprintf("spine%d.port%d", s, l), lsw, -1)
		}
	}

	for h := 0; h < hosts; h++ {
		hl := h / hpl
		for l, lsw := range leafSw {
			if l == hl {
				lsw.route[h] = int32(h % hpl)
			} else {
				lsw.route[h] = int32(down(l) + h%spines)
			}
		}
		for _, ssw := range spineSw {
			ssw.route[h] = int32(hl)
		}
	}
}

// rehashRoutes recomputes fat-tree cross-leaf routing around dead paths:
// each (leaf, destination) pair keeps its default ECMP spine (dst mod
// spines) while both hops of that path are live, and otherwise diverts to
// the first live spine cyclically after it. With every spine path dead the
// default stands and frames drop at the dead port. Restoring a link
// rehashes back, so recovered fabrics route exactly as never-faulted ones.
// Topologies without redundant paths never reroute.
func (t *Fabric) rehashRoutes() {
	if len(t.ftLeaves) == 0 {
		return
	}
	spines := t.ftSpines
	spineSw := t.switches[len(t.ftLeaves):]
	for l, lsw := range t.ftLeaves {
		downN := len(lsw.outs) - spines
		for h := 0; h < t.spec.hosts; h++ {
			hl := h / t.ftHpl
			if hl == l {
				continue
			}
			base := h % spines
			pick := base
			for i := 0; i < spines; i++ {
				s := (base + i) % spines
				if !lsw.outs[downN+s].down && !spineSw[s].outs[hl].down {
					pick = s
					break
				}
			}
			lsw.route[h] = int32(downN + pick)
		}
	}
}

// InjectFaults adopts a compiled fault schedule. Call after NewFabric and
// before the run starts. Scripted drops and flaps naming a port the
// compiled topology does not have panic with the port named — the same
// contract as the attach panics; a fault schedule that silently never
// fires is a test that silently passes. The ideal two-endpoint tier has
// only the host egresses and no redundant paths, so flaps are rejected
// there.
func (t *Fabric) InjectFaults(inj *faults.Injector) {
	if t.ideal {
		t.injectIdeal(inj)
		return
	}
	byName := make(map[string]*outPort)
	for i := range t.hosts {
		byName[t.hosts[i].name] = &t.hosts[i]
	}
	for _, sw := range t.switches {
		for i := range sw.outs {
			byName[sw.outs[i].name] = &sw.outs[i]
		}
	}
	for _, name := range inj.ScriptPorts() {
		if _, ok := byName[name]; !ok {
			panic(fmt.Sprintf("topo: %s: fault injection on unknown port %q (no such compiled port)", t.spec, name))
		}
	}
	if inj.Bernoulli() {
		for _, p := range byName {
			p.flt = inj.Link(p.name)
		}
	}
	for _, name := range inj.ScriptPorts() {
		p := byName[name]
		p.flt = inj.Link(name)
		for _, fl := range inj.FlapsFor(name) {
			p.eager = true
			t.k.At(fl.Down, p.setDown)
			t.k.At(fl.Up, p.setUp)
		}
	}
}

// injectIdeal is InjectFaults for the calibrated two-endpoint tier:
// per-egress fault state consulted at Send time.
func (t *Fabric) injectIdeal(inj *faults.Injector) {
	if len(inj.Config().Flaps) > 0 {
		panic(fmt.Sprintf("topo: %s: link flaps need a switched topology (no redundant paths to fail over)", t.spec))
	}
	known := make(map[string]bool)
	for id := range t.busyUntil {
		known[fabric.EgressName(id)] = true
	}
	for _, name := range inj.ScriptPorts() {
		if !known[name] {
			panic(fmt.Sprintf("topo: %s: fault injection on unknown port %q (ideal tier has only host egresses)", t.spec, name))
		}
	}
	t.flts = make([]*faults.Link, len(t.busyUntil))
	scripted := make(map[string]bool)
	for _, name := range inj.ScriptPorts() {
		scripted[name] = true
	}
	for id := range t.flts {
		if name := fabric.EgressName(id); inj.Bernoulli() || scripted[name] {
			t.flts[id] = inj.Link(name)
		}
	}
}

// ---------- the NIC-facing network ----------

// Spec reports the resolved topology.
func (t *Fabric) Spec() Spec { return t.spec }

// UncontendedWire reports the inject-to-deliver time of a frame carrying
// bytes payload bytes that crosses hops serialization ports of an idle
// fabric. The ideal tier serializes once and then flies its constant
// flight, whatever hops says. The compiled tiers serialize at each of the
// hops ports, fly WireProp/2 on each cable, and add SwitchLatency at each
// of the hops-1 switches.
func (t *Fabric) UncontendedWire(bytes, hops int) units.Time {
	ser := fabric.SerTime(bytes)
	if t.ideal {
		return ser + t.flight
	}
	h := units.Time(hops)
	return h*ser + h*t.hopProp + (h-1)*t.cfg.SwitchLatency
}

// Attach registers port under NIC id. Ids may be sparse and attached in
// any order; only ids below the compiled host count are routable.
func (t *Fabric) Attach(id int, p fabric.Port) {
	if _, dup := t.ports[id]; dup {
		panic(fmt.Sprintf("topo: %s: duplicate port id %d", t.spec, id))
	}
	t.ports[id] = p
	if t.routed(id) {
		t.attached[id] = true
	}
}

// NewFrame allocates a pooled frame owned by the caller until it is handed
// to Send (see the package borrow contract).
func (t *Fabric) NewFrame() *fabric.Frame { return t.frames.Alloc() }

// InUseFrames reports live frame-pool slots, the pool-leak check: it must
// return to zero once every in-flight frame has been delivered and
// released.
func (t *Fabric) InUseFrames() int { return t.frames.InUse() }

// Payloads reports the system's payload buffer pool: the NICs fill one
// buffer per WQE from it, and its InUse must return to zero once every
// ring record, frame and TLP holding a payload has let go.
func (t *Fabric) Payloads() *arena.BufPool { return t.payloads }

// routed reports whether host id has a compiled route.
func (t *Fabric) routed(id int) bool { return id >= 0 && id < t.spec.hosts }

// sendable is the hot-path check: one bounds test and one bool load.
func (t *Fabric) sendable(id int) bool {
	return uint(id) < uint(len(t.attached)) && t.attached[id]
}

// badPort diagnoses a failed sendable check, panicking with the port and
// the topology named. Cold path only.
func (t *Fabric) badPort(id int, role string) {
	if _, ok := t.ports[id]; !ok {
		panic(fmt.Sprintf("topo: %s: no attached %s port %d", t.spec, role, id))
	}
	panic(fmt.Sprintf("topo: %s: %s port %d is attached but not routed (topology has hosts 0..%d)",
		t.spec, role, id, t.spec.hosts-1))
}

// Send transmits f from its Src towards its Dst.
func (t *Fabric) Send(f *fabric.Frame) {
	if !t.sendable(f.Dst) {
		t.badPort(f.Dst, "destination")
	}
	if !t.sendable(f.Src) {
		t.badPort(f.Src, "source")
	}
	if t.ideal {
		// Calibrated two-endpoint path: egress serialization, then the
		// constant flight.
		start := units.Max(t.k.Now(), t.busyUntil[f.Src])
		txDone := start + fabric.SerTime(f.Bytes)
		t.busyUntil[f.Src] = txDone
		if t.flts != nil {
			if fl := t.flts[f.Src]; fl != nil {
				switch fl.Decide() {
				case faults.Drop:
					// Lost after consuming its serialization slot.
					if t.tr != nil && f.TID != 0 {
						t.tr.Emit(trace.Event{At: t.k.Now(), Kind: trace.EvDrop,
							TID: f.TID, Port: t.idealPorts[f.Src], Node: -1})
					}
					f.Release()
					return
				case faults.Corrupt:
					f.Corrupted = true
				}
			}
		}
		if t.tr != nil && f.TID != 0 {
			// The egress queue is implicit (busyUntil): record the wait for
			// the wire as queue -> txstart so attribution sees it.
			t.tr.Emit(trace.Event{At: t.k.Now(), Kind: trace.EvQueue,
				TID: f.TID, Port: t.idealPorts[f.Src], Node: -1})
			t.tr.Emit(trace.Event{At: start, Kind: trace.EvTxStart, TID: f.TID,
				Port: t.idealPorts[f.Src], Node: -1, Arg: trace.ArgMsg(0, f.Bytes, uint32(f.PSN))})
		}
		t.k.AtArg(txDone+t.flight, t.deliverFn, f)
		return
	}
	t.hosts[f.Src].push(qent{f: f})
}

// AckFor allocates the transport-level acknowledgement frame answering the
// received Data frame f. The caller may retag it as an RnrNak or SeqNak
// (both ride the reverse path identically) and transmits it with Send.
func (t *Fabric) AckFor(f *fabric.Frame, info fabric.AckInfo) *fabric.Frame {
	ack := t.frames.Alloc()
	ack.Kind = fabric.TransportAck
	ack.Src = f.Dst
	ack.Dst = f.Src
	ack.Ack = info
	return ack
}

// ---------- observability ----------

// PortStat is one egress port's counters.
type PortStat struct {
	// Name is the compiled port name, e.g. "host0.egress", "sw0.port3",
	// "leaf1.up0", "spine0.port2".
	Name string
	// Forwarded counts the frames this port put on the wire, each when
	// its serialization ends, lost ones included: a frame a fault drops
	// at this port, or a flap kills during its transmission. It settles
	// on read.
	Forwarded uint64
	// MaxQueue is the deepest FIFO this port reached.
	MaxQueue int
	// CreditStalls counts drain passes that left frames queued because
	// the downstream link was out of credits.
	CreditStalls uint64
	// Busy is the accumulated wire-serialization occupancy; divided by a
	// measurement window it is the port's utilization.
	Busy units.Time
	// Dropped, Corrupted and Flaps count injected faults on the port's
	// link (all zero without fault injection).
	Dropped   uint64
	Corrupted uint64
	Flaps     uint64
}

// PortStats snapshots every egress port (host injections first, then each
// switch's output ports in port order). Empty on the ideal two-endpoint
// tier, which has no ports to congest.
func (t *Fabric) PortStats() []PortStat {
	var out []PortStat
	add := func(p *outPort) {
		p.settle()
		ps := PortStat{
			Name:         p.name,
			Forwarded:    p.forwarded,
			MaxQueue:     p.maxQueue,
			CreditStalls: p.creditStalls,
			Busy:         p.busyTime,
		}
		if p.flt != nil {
			ps.Dropped = p.flt.Dropped
			ps.Corrupted = p.flt.Corrupted
			ps.Flaps = p.flt.Flaps
		}
		out = append(out, ps)
	}
	for i := range t.hosts {
		add(&t.hosts[i])
	}
	for _, sw := range t.switches {
		for i := range sw.outs {
			add(&sw.outs[i])
		}
	}
	return out
}

// FormatHotPorts renders the ports that saw congestion — queueing beyond
// one frame or any credit stall — as an aligned report, one line per
// port. Empty when nothing congested.
func (t *Fabric) FormatHotPorts() string {
	var b strings.Builder
	for _, ps := range t.PortStats() {
		faulted := ps.Dropped > 0 || ps.Corrupted > 0 || ps.Flaps > 0
		if ps.MaxQueue <= 1 && ps.CreditStalls == 0 && !faulted {
			continue
		}
		fmt.Fprintf(&b, "  %-16s %8d frames, max queue %3d, %6d credit stalls",
			ps.Name, ps.Forwarded, ps.MaxQueue, ps.CreditStalls)
		if faulted {
			fmt.Fprintf(&b, ", %d dropped, %d corrupted, %d flaps", ps.Dropped, ps.Corrupted, ps.Flaps)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PortNames enumerates every compiled output-port name in deterministic
// order (host injection egresses first, then each switch's output ports in
// port order) — the exact names InjectFaults accepts for scripted drops and
// flaps. Fault-schedule generators (the chaos soak) derive valid targets
// from it instead of hand-assembling name strings; it is empty on the ideal
// two-endpoint tier, where flaps are rejected anyway.
func (t *Fabric) PortNames() []string {
	var out []string
	for i := range t.hosts {
		out = append(out, t.hosts[i].name)
	}
	for _, sw := range t.switches {
		for i := range sw.outs {
			out = append(out, sw.outs[i].name)
		}
	}
	return out
}

// SwitchPortNames enumerates only the switch output-port names (the
// flappable, redundantly-routed links on a fat-tree), in the same order
// PortStats reports them.
func (t *Fabric) SwitchPortNames() []string {
	var out []string
	for _, sw := range t.switches {
		for i := range sw.outs {
			out = append(out, sw.outs[i].name)
		}
	}
	return out
}

// MaxSwitchQueue reports the deepest output-port queue any switch reached —
// the headline congestion indicator of a run.
func (t *Fabric) MaxSwitchQueue() int {
	m := 0
	for _, sw := range t.switches {
		for i := range sw.outs {
			if d := sw.outs[i].maxQueue; d > m {
				m = d
			}
		}
	}
	return m
}

// CreditStalls sums credit-stall counts across every port.
func (t *Fabric) CreditStalls() uint64 {
	var n uint64
	for i := range t.hosts {
		n += t.hosts[i].creditStalls
	}
	for _, sw := range t.switches {
		for i := range sw.outs {
			n += sw.outs[i].creditStalls
		}
	}
	return n
}

// Switches exposes the compiled switches (tests inspect routing tables).
func (t *Fabric) Switches() []*Switch { return t.switches }

// Route reports switch sw's output-port index for destination host dst.
func (s *Switch) Route(dst int) int { return int(s.route[dst]) }

// Ports reports the switch's output-port count.
func (s *Switch) Ports() int { return len(s.outs) }
