package mpi

import (
	"errors"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/profile"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// parkScopes are the scopes FuzzNoisyPark selects on both nodes'
// profilers: none, scopes no skipped round opens, and scopes that keep
// some of the waits spinning.
var parkScopes = []profile.Scope{
	profile.None, profile.MPIIsend, profile.UCPTagSendNB, profile.LLPPost,
	profile.MPIWaitRecv, profile.UCPWorkerProgress, profile.EmptyPoll, profile.MPICHRecvCB,
}

// noisyParkCase is one FuzzNoisyPark system and script. Rank 1 waits in
// MPI_Wait for a receive nothing matches while rank 0 sends it msgs
// messages, each a CQ write that wakes it, waiting for each send in
// MPI_Wait or for all of them in one MPI_Waitall. A third task cancels
// rank 1's receive at cancelAt; another, when wakeAt is set, calls Wake on
// one rank's worker at wakeAt, a change-free wake. Each acts in an event
// queued lead before its instant.
type noisyParkCase struct {
	noise                config.NoiseLevel
	seed                 uint64
	drop                 float64
	scope                profile.Scope
	prop                 units.Time
	waitall              bool
	msgs                 int
	cancelAt, cancelLead units.Time
	wakeAt, wakeLead     units.Time
	wakeRank             int
}

// noisyParkRun is what one run observed: both ranks' stats and end
// instants, the kernel's clock and stall report when the queue drained,
// the next draw of each node's stream, and rank 1's poll instants when
// its wait spun and recorded them.
type noisyParkRun struct {
	ranks [2]rankRun
	clock units.Time
	stall string
	draws [2]uint64
	polls []units.Time
}

// at returns a step that acts at instant x, in an event queued lead
// before it (at spawn when lead reaches x).
func at(x, lead units.Time, act simtest.Step) []simtest.Step {
	lead = min(lead, x)
	return []simtest.Step{sleep(x - lead), sleep(lead), act}
}

func runNoisyPark(t *testing.T, c noisyParkCase, spin waiter, record bool) noisyParkRun {
	t.Helper()
	cfg := config.TX2CX4(c.noise, c.seed, true)
	cfg.SignalPeriod = 1
	if c.prop != 0 {
		cfg.PCIeProp = c.prop
	}
	cfg.Faults.DropRate = c.drop
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	sys.K.SetEventLimit(5_000_000)
	comm := NewComm(sys.Nodes[:2], cfg, uct.PIOInline)
	for _, nd := range sys.Nodes {
		nd.Prof.Select(c.scope)
	}
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var run noisyParkRun
	var rreq *Request
	wait1 := func(tk *sim.Task) { spin.wait(tk, r1, rreq) }
	if record {
		wait1 = func(tk *sim.Task) { tk.Call(&spinWaitFrame{r: r1, req: rreq, polls: &run.polls}) }
	}
	simtest.Start(sys.K, "rank1",
		func(tk *sim.Task) { rreq = r1.Irecv(tk, 0, 1<<20) },
		prep(r1, 16), wait1,
		func(tk *sim.Task) { run.ranks[1].end = tk.Now() })

	msg := make([]byte, 8)
	sreqs := make([]*Request, 0, c.msgs)
	s0 := []simtest.Step{prep(r0, 16), sleep(units.Microsecond)}
	for i := 0; i < c.msgs; i++ {
		s0 = append(s0,
			func(tk *sim.Task) { r0.StartIsend(tk, 1, i, msg) },
			func(tk *sim.Task) {
				sreqs = append(sreqs, r0.LastIsend())
				if !c.waitall {
					spin.wait(tk, r0, r0.LastIsend())
				}
			})
	}
	if c.waitall {
		s0 = append(s0, func(tk *sim.Task) { spin.waitall(tk, r0, sreqs) })
	}
	simtest.Start(sys.K, "rank0", append(s0, func(tk *sim.Task) { run.ranks[0].end = tk.Now() })...)

	errCancel := errors.New("cancelled")
	simtest.Start(sys.K, "canceller", at(c.cancelAt, c.cancelLead, func(tk *sim.Task) {
		r1.CancelRecv(tk, rreq, errCancel)
	})...)
	if c.wakeAt != 0 {
		simtest.Start(sys.K, "waker", at(c.wakeAt, c.wakeLead, func(*sim.Task) {
			comm.Ranks[c.wakeRank].Worker.Uct.Wake()
		})...)
	}
	sys.Run()
	run.clock, run.stall = sys.K.Now(), sys.K.StallReport()
	for i, r := range comm.Ranks {
		run.ranks[i].mpi, run.ranks[i].ucp, run.ranks[i].uct = r.Stats, r.Worker.Stats, r.Worker.Uct.Stats
		if rd := sys.Nodes[i].Rand; rd != nil {
			run.draws[i] = rd.Uint64()
		}
	}
	return run
}

// FuzzNoisyPark runs MPI waits that park, NoiseOn and now and then
// NoiseOff, against the same script with spinning waits (spinWaitFrame,
// spinWaitallFrame) on random seeds,
// drop rates (1 included), profiled scopes and a 10 ns PCIe propagation,
// with rank 1's receive cancelled, and a change-free Wake, at random
// instants, each in an event queued a random lead ahead. An instant may be
// one of rank 1's poll instants, taken from a spinning run that recorded
// them, so the tie rule's every case comes up: a change on a skipped
// poll's instant queued before or after the spin queued that poll. Both
// sides must agree on every stat, the ranks' end instants, the kernel's
// final clock and stall report, and each node stream's next draw.
func FuzzNoisyPark(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint16(3000), uint16(0), uint16(0), uint16(0))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0b0100), uint16(7), uint16(1), uint16(0), uint16(0))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0b0100), uint16(9), uint16(2600), uint16(0), uint16(0))
	f.Add(uint64(4), uint8(0), uint8(1), uint8(0b11110), uint16(40), uint16(3), uint16(20), uint16(1))
	f.Add(uint64(5), uint8(1), uint8(0), uint8(0), uint16(2000), uint16(5), uint16(0), uint16(0))
	f.Add(uint64(6), uint8(2), uint8(5), uint8(0b0010), uint16(6000), uint16(50), uint16(900), uint16(40))
	f.Add(uint64(7), uint8(0), uint8(6), uint8(0b0001), uint16(5000), uint16(0), uint16(0), uint16(0))
	f.Add(uint64(8), uint8(3), uint8(3), uint8(0b111100), uint16(12), uint16(4000), uint16(30), uint16(2))
	f.Fuzz(func(t *testing.T, seed uint64, drop, scope, flags uint8, cancelAt, cancelLead, wakeAt, wakeLead uint16) {
		c := noisyParkCase{
			noise:      config.NoiseOn,
			seed:       seed,
			drop:       []float64{0, 1, 0.05, 0.3}[drop%4],
			scope:      parkScopes[int(scope)%len(parkScopes)],
			waitall:    flags&0b10 != 0,
			msgs:       1 + int(seed%5),
			cancelAt:   units.Nanoseconds(500) + units.Time(cancelAt)*150,
			cancelLead: units.Time(cancelLead) * 11,
			wakeLead:   units.Time(wakeLead) * 11,
			wakeRank:   int(flags>>5) & 1,
		}
		if flags&1 != 0 {
			c.prop = units.Nanoseconds(10)
		}
		if flags&0b1000000 != 0 {
			c.noise = config.NoiseOff
		}
		if flags&0b10000 != 0 {
			c.wakeAt = units.Nanoseconds(500) + units.Time(wakeAt)*150
		}
		if flags&0b1100 != 0 {
			// Move the cancel, the wake or both onto rank 1's spinning
			// poll instants before the cancel; the run matches the
			// recording up to its first change.
			rec := runNoisyPark(t, c, true, true)
			if n := len(rec.polls); n > 0 {
				if flags&0b100 != 0 {
					c.cancelAt = rec.polls[int(cancelAt)%n]
				}
				if flags&0b1000 != 0 && c.wakeAt != 0 {
					c.wakeAt = rec.polls[int(wakeAt)%n]
				}
			}
		}
		want := runNoisyPark(t, c, true, false)
		got := runNoisyPark(t, c, false, false)
		if want.stall != "" {
			t.Fatalf("%+v: the spinning run stalled: %s", c, want.stall)
		}
		if got.ranks != want.ranks || got.clock != want.clock || got.stall != want.stall || got.draws != want.draws {
			t.Fatalf("%+v:\nparked %+v clock %v draws %x stall %q\nspin   %+v clock %v draws %x stall %q",
				c, got.ranks, got.clock, got.draws, got.stall, want.ranks, want.clock, want.draws, want.stall)
		}
	})
}
