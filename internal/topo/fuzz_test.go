package topo_test

import (
	"fmt"
	"reflect"
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/faults"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/units"
)

// netOp is one op of a fabric schedule: at its instant, a Data frame of
// size payload bytes from src to dst, or a PortStats read; or a probe,
// an event that, lead before one of the reference run's queue-depth or
// delivery instants, reads PortStats and schedules an event at that
// instant. A lead of one cable's flight puts the read on the instant the
// frame arriving there left its port.
type netOp struct {
	at       units.Time
	kind     int
	src, dst int
	size     int
	target   int
	lead     units.Time
}

// The netOp kinds.
const (
	opSend = iota
	opProbe
	opStats
	opKinds
)

// netCase is a decoded fuzz input: a star or fat-tree shape, its credit
// budget, a fault schedule, how long receivers hold frames, and the ops.
type netCase struct {
	spec  topo.Spec
	hosts int
	flts  faults.Config
	flap  int // index into PortNames of the flapped port, -1 for none
	down  units.Time
	up    units.Time
	hold  units.Time
	ops   []netOp
}

var (
	netSizes = [5]int{8, 64, 512, 1500, 4096}
	netRates = [4][2]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {0.05, 0.05}}
	// netCfg is the calibrated shape: 274.81 ns of wire across two cables
	// and a 108 ns switch.
	netCfg = fabric.Config{WireProp: 274810, SwitchLatency: 108 * units.Nanosecond}
)

// decodeNet reads a netCase from fuzzer bytes: six header bytes (shape and
// host count, credits and faults, receiver hold, and the flap), then three
// bytes per op. An op's first byte picks its kind and size, the second its
// endpoints or probe target, the third how long after the previous op it
// runs, in 0.5 ns steps, so ops can share an instant; a probe's third byte
// picks its lead instead.
func decodeNet(data []byte) (netCase, bool) {
	if len(data) < 6 {
		return netCase{}, false
	}
	c := netCase{hosts: 3 + int(data[0]/2)%6, flap: -1}
	c.spec = topo.Spec{Kind: topo.SingleSwitch, Credits: 1 + int(data[1])%4}
	if data[0]%2 == 1 {
		c.spec.Kind = topo.FatTree
	}
	rates := netRates[data[1]/4%4]
	c.flts.DropRate, c.flts.CorruptRate = rates[0], rates[1]
	c.hold = units.Time(data[2]) * 4 * units.Nanosecond
	if data[1]/16%2 == 1 {
		c.flap = int(data[3])
		c.down = units.Time(data[4]) * 20 * units.Nanosecond
		c.up = c.down + units.Time(data[5])*20*units.Nanosecond + units.Nanosecond
	}
	var at units.Time
	for i := 6; i+2 < len(data) && len(c.ops) < 200; i += 3 {
		op := netOp{kind: int(data[i]) % opKinds, size: netSizes[int(data[i]/opKinds)%len(netSizes)]}
		switch op.kind {
		case opProbe:
			op.target = int(data[i+1])
			// Leads around a cable's flight, so the probe's first event
			// runs while the target's frame serializes, or at its end.
			prop := []units.Time{netCfg.WireProp / 2, netCfg.WireProp/2 + netCfg.SwitchLatency}[data[i+2]%2]
			op.lead = prop + []units.Time{0, 1, 80, units.Nanosecond, 5 * units.Nanosecond}[data[i+2]/2%5]
		default:
			at += units.Time(data[i+2]) * 500
			op.at = at
			op.src = int(data[i+1]) % c.hosts
			op.dst = (op.src + 1 + int(data[i+1])/c.hosts%(c.hosts-1)) % c.hosts
		}
		c.ops = append(c.ops, op)
	}
	return c, true
}

// netRun is what one run of a netCase leaves behind.
type netRun struct {
	log     []string // deliveries, queue depths, probes and stats reads, in firing order
	targets []units.Time
	stats   []topo.PortStat
	end     units.Time
	fired   uint64
	inUse   int
}

type rxFunc func(*fabric.Frame)

func (fn rxFunc) RxFrame(f *fabric.Frame) { fn(f) }

// runNet plays c on a fresh fabric. keep selects the reference, whose
// ports keep every txDone a real event; probes aim at targets.
func runNet(c netCase, keep bool, targets []units.Time) netRun {
	k := sim.NewKernel()
	k.SetEventLimit(1 << 22)
	fab := topo.NewFabric(k, netCfg, c.spec, c.hosts)
	if keep {
		fab.KeepEveryTxDone()
	}
	flts := c.flts
	if names := fab.PortNames(); c.flap >= 0 {
		flts.Flaps = []faults.Flap{{Port: names[c.flap%len(names)], Down: c.down, Up: c.up}}
	}
	if flts.Enabled() {
		fab.InjectFaults(faults.MustInjector(1, flts))
	}
	run := netRun{}
	note := func(s string) {
		run.log = append(run.log, fmt.Sprintf("%v %s", k.Now(), s))
		run.targets = append(run.targets, k.Now())
	}
	fab.OnDepth = func(_ units.Time, port string, depth int) { note(fmt.Sprintf("%s depth %d", port, depth)) }
	for i := 0; i < c.hosts; i++ {
		fab.Attach(i, rxFunc(func(f *fabric.Frame) {
			note(fmt.Sprintf("rx %d->%d #%d", f.Src, f.Dst, f.PSN))
			if hold := c.hold * units.Time(f.PSN%3); hold > 0 {
				k.After(hold, f.Release)
				return
			}
			f.Release()
		}))
	}
	for i, op := range c.ops {
		switch op.kind {
		case opSend:
			k.At(op.at, func() {
				f := fab.NewFrame()
				f.Kind = fabric.Data
				f.Src, f.Dst, f.Bytes, f.PSN = op.src, op.dst, op.size, uint16(i)
				fab.Send(f)
			})
		case opProbe:
			if len(targets) == 0 {
				continue
			}
			if x := targets[op.target%len(targets)]; x >= op.lead {
				k.At(x-op.lead, func() {
					note(fmt.Sprintf("probe %d stats %+v", i, fab.PortStats()))
					k.At(x, func() { note(fmt.Sprintf("probe %d", i)) })
				})
			}
		case opStats:
			k.At(op.at, func() { note(fmt.Sprintf("stats %+v", fab.PortStats())) })
		}
	}
	k.Run()
	run.end, run.fired = k.Now(), k.Fired()
	run.stats = fab.PortStats()
	run.inUse = fab.InUseFrames()
	return run
}

// FuzzReservedHops: on any star or fat-tree, with any frame sizes and send
// instants, receivers that hold frames, Bernoulli drops and corruptions,
// a flap, probes that land on the instants frames reach a port or a host,
// and PortStats reads mid-run, a fabric whose ports reserve their txDones
// and queue each arrival at kick delivers the same frames at the same
// instants in the same order as a fabric whose ports keep every txDone a
// real event, with the same queue depths, port counters and end clock and
// no more events. Both drain their frame pools.
func FuzzReservedHops(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 2, 0, 8, 3, 0, 1, 0, 0, 4, 0, 0})                      // a star incast with one credit
	f.Add([]byte{1, 3, 10, 0, 0, 0, 1, 5, 0, 13, 9, 4, 1, 2, 3, 4, 3, 0, 1, 7, 1, 2, 12, 5})          // fat-tree, deferred releases
	f.Add([]byte{5, 4, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 1, 0, 1, 1, 1, 3, 3, 5, 1, 1, 7, 8})             // drops, probes at frame arrivals
	f.Add([]byte{3, 28, 2, 9, 3, 5, 0, 1, 0, 5, 2, 2, 0, 4, 1, 2, 0, 0, 1, 6, 2, 1, 3, 1, 8, 2, 100}) // fat-tree flap with corruptions
	// Frames in a row on one credit, with a flap scheduled: arrivals land
	// on guarded instants, a port upstream stalls on the credit a
	// reserved frame holds, and frames are pushed behind reserved ones.
	f.Add([]byte("1000009A09A0"))
	f.Add([]byte("000000000000"))
	f.Add([]byte("700000000000"))
	f.Add([]byte("010000900000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeNet(data)
		if !ok {
			return
		}
		targets := runNet(c, true, nil).targets
		sameNets(t, runNet(c, false, targets), runNet(c, true, targets))
	})
}

// sameNets fails t unless the reserving run got matches the reference ref.
func sameNets(t *testing.T, got, ref netRun) {
	t.Helper()
	if got.inUse != 0 || ref.inUse != 0 {
		t.Fatalf("%d and %d frames left in use", got.inUse, ref.inUse)
	}
	for i := range max(len(got.log), len(ref.log)) {
		if i >= len(got.log) || i >= len(ref.log) || got.log[i] != ref.log[i] {
			t.Fatalf("runs differ from entry %d of %d and %d:\nreserving %q\nreference %q", i, len(got.log), len(ref.log), got.log[i:min(i+3, len(got.log))], ref.log[i:min(i+3, len(ref.log))])
		}
	}
	if !reflect.DeepEqual(got.stats, ref.stats) {
		t.Fatalf("port counters differ:\nreserving %+v\nreference %+v", got.stats, ref.stats)
	}
	if got.end != ref.end || got.fired > ref.fired {
		t.Fatalf("reserving run ended at %v after %d events, reference at %v after %d", got.end, got.fired, ref.end, ref.fired)
	}
}

// TestUncontendedHopIsOneEvent: a frame crossing an idle star costs one
// kernel event per hop, its arrival, where a port that keeps its txDone
// costs two.
func TestUncontendedHopIsOneEvent(t *testing.T) {
	c := netCase{spec: topo.Spec{Kind: topo.SingleSwitch}, hosts: 3, flap: -1, ops: []netOp{{kind: opSend, src: 1, dst: 0, size: 64}}}
	got, ref := runNet(c, false, nil), runNet(c, true, nil)
	sameNets(t, got, ref)
	if got.fired != 3 || ref.fired != 5 {
		t.Errorf("the send and two hops fired %d events, and %d keeping every txDone; want 3 and 5", got.fired, ref.fired)
	}
}
