package mpi

import (
	"errors"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/profile"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/ucp"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// spinWaitFrame is MPI_Wait spelled out as the spin it parks instead of:
// test the request, and while it is pending count the loop, pay its cost
// and run one ucp_worker_progress, with no pause in between. It opens the
// wait's scopes as MPI_Wait does, so a profiled run times the same.
type spinWaitFrame struct {
	r        *Rank
	req      *Request
	pc       int
	measured bool
	waitTok  profile.Token
	progTok  profile.Token
	// polls, when set, collects the kernel's clock as each
	// ucp_worker_progress returns: an empty poll that reposted nothing
	// returns within its CQ read's event, so the clock is that read's
	// instant.
	polls *[]units.Time
}

func (f *spinWaitFrame) begin(t *sim.Task, s profile.Scope) profile.Token {
	if !f.measured {
		return profile.Token{}
	}
	return f.r.Node.Prof.Begin(t, s)
}

func (f *spinWaitFrame) Step(t *sim.Task) {
	r := f.r
	if f.pc == 0 {
		r.Stats.Waits++
		f.measured = f.req.isRecv
		if f.measured {
			r.Stats.RecvWaits++
		}
		f.waitTok = f.begin(t, profile.MPIWaitRecv)
		t.Advance(r.Cfg.SW.MpichWaitEnt.Sample(r.Node.Rand))
		f.pc = 1
	} else {
		r.Node.Prof.End(t, f.progTok)
		if f.polls != nil {
			*f.polls = append(*f.polls, t.Kernel().Now())
		}
	}
	if r.checkFailed(t, f.req) {
		afterTok := f.begin(t, profile.MPICHAfterProgress)
		t.Advance(r.Cfg.SW.MpichAfterPrg.Sample(r.Node.Rand))
		r.Node.Prof.End(t, afterTok)
		r.Node.Prof.End(t, f.waitTok)
		t.Return()
		return
	}
	r.Stats.WaitLoops++
	if f.measured {
		r.Stats.RecvWaitLoops++
	}
	t.Advance(r.Cfg.SW.MpichWaitLoop.Sample(r.Node.Rand))
	f.progTok = f.begin(t, profile.UCPWorkerProgress)
	r.Worker.StartProgress(t)
}

// spinWaitallFrame is MPI_Waitall spelled out as the spin it parks
// instead of.
type spinWaitallFrame struct {
	r       *Rank
	reqs    []*Request
	started bool
}

func (f *spinWaitallFrame) Step(t *sim.Task) {
	r := f.r
	if !f.started {
		t.Advance(r.Cfg.SW.MpichWaitEnt.Sample(r.Node.Rand))
		f.started = true
	}
	remaining := 0
	for _, q := range f.reqs {
		if !r.checkFailed(t, q) {
			remaining++
		}
	}
	if remaining == 0 {
		t.Return()
		return
	}
	r.Stats.WaitLoops++
	t.Advance(r.Cfg.SW.MpichWaitallOp.Sample(r.Node.Rand))
	r.Worker.StartProgress(t)
}

// waiter waits in MPI_Wait and MPI_Waitall, or with spin set in their
// spinning copies.
type waiter bool

func (spin waiter) wait(tk *sim.Task, r *Rank, req *Request) {
	if spin {
		tk.Call(&spinWaitFrame{r: r, req: req})
		return
	}
	r.StartWait(tk, req)
}

func (spin waiter) waitall(tk *sim.Task, r *Rank, reqs []*Request) {
	if spin {
		tk.Call(&spinWaitallFrame{r: r, reqs: reqs})
		return
	}
	r.StartWaitall(tk, reqs)
}

// mpiCase is the system of one MPI wait run: its noise level, a scope
// selected on both nodes' profilers, the PCIe propagation when set, and
// the drop rate; parks says whether the waits park there.
type mpiCase struct {
	name  string
	noise config.NoiseLevel
	scope profile.Scope
	prop  units.Time
	drop  float64
	parks bool
}

var mpiCases = []mpiCase{
	{"noiseoff", config.NoiseOff, profile.None, 0, 0, true},
	{"noiseon", config.NoiseOn, profile.None, 0, 0, true},
	// A timed ucp_worker_progress keeps a receive wait spinning; send
	// waits and MPI_Waitall, which do not open it, still park.
	{"progress-profiled", config.NoiseOff, profile.UCPWorkerProgress, 0, 0, true},
	{"noiseon-isend-profiled", config.NoiseOn, profile.MPIIsend, 0, 0, true},
	{"poll-profiled", config.NoiseOn, profile.EmptyPoll, 0, 0, false},
	{"short-pcie-prop", config.NoiseOff, profile.None, units.Nanoseconds(10), 0, true},
	{"noiseon-short-pcie-prop", config.NoiseOn, profile.None, units.Nanoseconds(10), 0, true},
	{"failed", config.NoiseOff, profile.None, 0, 1, true},
	{"noiseon-failed", config.NoiseOn, profile.None, 0, 1, true},
}

// rankRun is what one rank saw in a wait run: its MPI, ucp and uct stats
// and when its script ended.
type rankRun struct {
	mpi Stats
	ucp ucp.Stats
	uct uct.Stats
	end units.Time
}

// mpiRun is what a wait run observed: both ranks, and the kernel events
// the run fired.
type mpiRun struct {
	ranks  [2]rankRun
	events uint64
}

// runRanks builds c's two-rank system at the given signal period, starts
// the scripts script returns for ranks 0 and 1, each ending with a step
// that records when it ended, and runs it. A run must leave no task stuck.
func runRanks(t *testing.T, c mpiCase, signalPeriod int, script func(r0, r1 *Rank) (s0, s1 []simtest.Step)) mpiRun {
	t.Helper()
	cfg := config.TX2CX4(c.noise, 1, true)
	cfg.SignalPeriod = signalPeriod
	if c.prop != 0 {
		cfg.PCIeProp = c.prop
	}
	cfg.Faults.DropRate = c.drop
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	comm := NewComm(sys.Nodes[:2], cfg, uct.PIOInline)
	for _, nd := range sys.Nodes {
		nd.Prof.Select(c.scope)
	}
	var run mpiRun
	s0, s1 := script(comm.Ranks[0], comm.Ranks[1])
	for i, s := range [][]simtest.Step{s0, s1} {
		end := &run.ranks[i].end
		simtest.Start(sys.K, "rank", append(s, func(tk *sim.Task) { *end = tk.Now() })...)
	}
	sys.Run()
	if rep := sys.K.StallReport(); rep != "" {
		t.Fatalf("%s: %s", c.name, rep)
	}
	for i, r := range comm.Ranks {
		run.ranks[i].mpi, run.ranks[i].ucp, run.ranks[i].uct = r.Stats, r.Worker.Stats, r.Worker.Uct.Stats
	}
	run.events = sys.K.Fired()
	return run
}

// compareRuns checks a parked run against its spinning reference: the
// same stats and end instants on both ranks, and fewer kernel events where
// c parks, the same elsewhere.
func compareRuns(t *testing.T, what string, c mpiCase, got, want mpiRun) {
	t.Helper()
	if got.ranks != want.ranks {
		t.Errorf("%s %s: parked %+v; spin %+v", what, c.name, got.ranks, want.ranks)
	}
	if c.parks {
		if got.events >= want.events {
			t.Errorf("%s %s: %d kernel events, spin %d; want fewer", what, c.name, got.events, want.events)
		}
	} else if got.events != want.events {
		t.Errorf("%s %s: %d kernel events, spin %d; want the same", what, c.name, got.events, want.events)
	}
}

// TestWaitMatchesSpin: a blocking ping-pong whose MPI_Waits park polls
// exactly where the spinning wait does, under NoiseOff and NoiseOn alike,
// so both ranks' stats, WaitLoops and RecvWaitLoops included, and the
// instants their scripts end are the spin's. At drop rate 1 the first ping
// fails; rank 0 then cancels rank 1's pending receive, which wakes rank
// 1's parked wait. Over a 10 ns PCIe propagation, shorter than a round,
// the tie rule still finds the spin's polls. With the poll's scope
// profiled the waits spin and fire the same kernel events.
func TestWaitMatchesSpin(t *testing.T) {
	const iters = 20
	for _, c := range mpiCases {
		runs := [2]mpiRun{}
		for v, spin := range []waiter{true, false} {
			runs[v] = runRanks(t, c, 1, func(r0, r1 *Rank) ([]simtest.Step, []simtest.Step) {
				msg := make([]byte, 8)
				var i0, i1 int
				var failed bool
				var sreq0, rreq0, sreq1, rreq1 *Request
				s0 := []simtest.Step{prep(r0, 16), sleep(units.Microsecond),
					simtest.While(func() bool { return i0 < iters && !failed },
						func(tk *sim.Task) { r0.StartIsend(tk, 1, i0, msg) },
						func(tk *sim.Task) { sreq0 = r0.LastIsend(); spin.wait(tk, r0, sreq0) },
						func(tk *sim.Task) {
							if err := sreq0.Err(); err != nil {
								failed = true
								r1.CancelRecv(tk, rreq1, err)
								return
							}
							rreq0 = r0.Irecv(tk, 1, i0)
							spin.wait(tk, r0, rreq0)
						},
						func(*sim.Task) { i0++ },
					)}
				s1 := []simtest.Step{prep(r1, 16),
					simtest.While(func() bool { return i1 < iters && !failed },
						func(tk *sim.Task) { rreq1 = r1.Irecv(tk, 0, i1); spin.wait(tk, r1, rreq1) },
						func(tk *sim.Task) {
							if rreq1.Err() == nil {
								r1.StartIsend(tk, 0, i1, msg)
							}
						},
						func(tk *sim.Task) {
							if rreq1.Err() == nil {
								sreq1 = r1.LastIsend()
								spin.wait(tk, r1, sreq1)
							}
						},
						func(*sim.Task) { i1++ },
					)}
				return s0, s1
			})
		}
		compareRuns(t, "ping-pong", c, runs[1], runs[0])
		r0, r1 := runs[1].ranks[0], runs[1].ranks[1]
		switch {
		case c.drop == 1 && (r0.ucp.SendFailures != 1 || r1.ucp.RecvFailures != 1):
			t.Errorf("%s: %d failed sends on rank 0 and %d cancelled receives on rank 1, want 1 and 1", c.name, r0.ucp.SendFailures, r1.ucp.RecvFailures)
		case c.drop == 0 && (r0.mpi.RecvWaits != iters || r1.mpi.RecvWaitLoops == 0):
			t.Errorf("%s: rank 0 %+v, rank 1 %+v; want %d receive waits on rank 0 and a rank 1 that loops", c.name, r0.mpi, r1.mpi, iters)
		}
	}
}

// TestWaitallMatchesSpin: rank 0 sends a window of 192 messages at signal
// period 64, a third of them waiting in ucp's pending queue behind the
// full send queue, and MPI_Waitalls for them; rank 1 posts the 192
// receives and MPI_Waitalls too. Parked or spinning, both ranks' stats and
// end instants are the same. At drop rate 1 the QP fails, the pending
// posts fail with it, and rank 0 cancels rank 1's receives once its
// Waitall ends, waking rank 1's.
func TestWaitallMatchesSpin(t *testing.T) {
	const window = 192
	for _, c := range mpiCases {
		runs := [2]mpiRun{}
		for v, spin := range []waiter{true, false} {
			runs[v] = runRanks(t, c, 64, func(r0, r1 *Rank) ([]simtest.Step, []simtest.Step) {
				msg := make([]byte, 8)
				sreqs := make([]*Request, 0, window)
				rreqs := make([]*Request, 0, window)
				// Rank 0 starts once rank 1 has posted its credits and
				// receives, so rank 1 waits for every message.
				s0 := []simtest.Step{prep(r0, 16), sleep(units.Microseconds(50))}
				for i := 0; i < window; i++ {
					s0 = append(s0, func(tk *sim.Task) { r0.StartIsend(tk, 1, i, msg) },
						func(*sim.Task) { sreqs = append(sreqs, r0.LastIsend()) })
				}
				s0 = append(s0,
					func(tk *sim.Task) { spin.waitall(tk, r0, sreqs) },
					func(tk *sim.Task) {
						for _, q := range sreqs {
							if err := q.Err(); err != nil {
								for _, rq := range rreqs {
									r1.CancelRecv(tk, rq, err)
								}
								return
							}
						}
					})
				s1 := []simtest.Step{prep(r1, 512), func(tk *sim.Task) {
					for i := 0; i < window; i++ {
						rreqs = append(rreqs, r1.Irecv(tk, 0, i))
					}
				}, func(tk *sim.Task) { spin.waitall(tk, r1, rreqs) }}
				return s0, s1
			})
		}
		compareRuns(t, "waitall", c, runs[1], runs[0])
		r0, r1 := runs[1].ranks[0], runs[1].ranks[1]
		if r0.ucp.BusyPosts == 0 {
			t.Errorf("%s: no busy post: no send waited in the pending queue", c.name)
		}
		if c.drop == 1 && (r0.ucp.SendFailures != window || r1.ucp.RecvFailures != window) {
			t.Errorf("%s: %d failed sends and %d cancelled receives, want %d each", c.name, r0.ucp.SendFailures, r1.ucp.RecvFailures, window)
		}
	}
}

// TestCancelEndsParkedWait: rank 1 waits in MPI_Wait for a receive nothing
// will match, polling first at r1 and parking after that poll; its
// skipped polls read at r1 + k*P, with P = MpichWaitLoop + UcpProgress +
// the poll's barrier and failed check. Another task cancels the receive
// at T, and its clock stays at T. The wait sees the cancel after the first
// poll at or after T, pays the receive's MPICH callback and ends, exactly
// where the spinning wait ends, and parked it fires a handful of kernel
// events.
func TestCancelEndsParkedWait(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sw := &cfg.SW
	barrier := sw.LLPProgBarrier.Mean()
	above := sw.MpichWaitLoop.Mean() + sw.UcpProgress.Mean()
	period := above + barrier + sw.LLPProgFailChk.Mean()
	r1 := sw.MpiIrecv.Mean() + sw.MpichWaitEnt.Mean() + above + barrier
	pollAt := func(k int) units.Time { return r1 + units.Time(k)*period }
	errCancel := errors.New("cancelled")
	const k = 40
	for _, c := range []struct {
		name string
		at   units.Time
		k    int // the poll after which the wait sees the cancel
	}{
		{"1ps before a poll", pollAt(k) - 1, k},
		{"on a poll", pollAt(k), k},
		{"1ps after a poll", pollAt(k) + 1, k + 1},
	} {
		var ends, cancelled [2]units.Time
		var events [2]uint64
		var loops [2]uint64
		for v, spin := range []waiter{true, false} {
			sys := node.NewSystem(cfg, 2)
			comm := NewComm(sys.Nodes[:2], cfg, uct.PIOInline)
			rank := comm.Ranks[1]
			var req *Request
			simtest.Start(sys.K, "rank1",
				func(tk *sim.Task) { req = rank.Irecv(tk, 0, 1); spin.wait(tk, rank, req) },
				func(tk *sim.Task) { ends[v] = tk.Now() })
			simtest.Start(sys.K, "canceller", sleep(c.at), func(tk *sim.Task) {
				if !rank.CancelRecv(tk, req, errCancel) {
					t.Errorf("%s: the receive was not pending at %v", c.name, c.at)
				}
				cancelled[v] = tk.Now()
			})
			sys.Run()
			if rep := sys.K.StallReport(); rep != "" {
				t.Errorf("%s spin=%v: %s", c.name, spin, rep)
			}
			events[v], loops[v] = sys.K.Fired(), rank.Stats.WaitLoops
			sys.Shutdown()
		}
		want := pollAt(c.k) + sw.LLPProgFailChk.Mean() + sw.MpichRecvCB.Mean() + sw.MpichAfterPrg.Mean()
		if ends[1] != want || ends[0] != want || loops[1] != loops[0] || loops[1] != uint64(c.k+1) {
			t.Errorf("%s: parked wait ended at %v after %d loops, spin at %v after %d; want %v after %d",
				c.name, ends[1], loops[1], ends[0], loops[0], want, c.k+1)
		}
		if cancelled[0] != c.at || cancelled[1] != c.at {
			t.Errorf("%s: the canceller's clock moved from %v to %v (spin) and %v (parked)", c.name, c.at, cancelled[0], cancelled[1])
		}
		if events[1] >= events[0]/4 {
			t.Errorf("%s: parked wait fired %d kernel events, spin %d", c.name, events[1], events[0])
		}
	}
}
