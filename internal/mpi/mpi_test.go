package mpi

import (
	"bytes"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/uct"
	"breakband/internal/units"
)

func harness(t *testing.T) (*node.System, *Comm) {
	t.Helper()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Bench.SignalPeriod = 1 // blocking sends complete via per-message CQEs
	sys := node.NewSystem(cfg, 2)
	comm := NewComm(sys.Nodes[:2], cfg, uct.PIOInline)
	return sys, comm
}

// Scripted-step builders for the rank tasks below. Pointer arguments are
// read or written when the step runs, so later steps see earlier results.

func prep(r *Rank, n int) simtest.Step {
	return func(tk *sim.Task) { r.StartPreparePostedRecvs(tk, n) }
}

func sleep(d units.Time) simtest.Step {
	return func(tk *sim.Task) { tk.Advance(d) }
}

// isend starts MPI_Isend and stores its request in *out (if non-nil).
func isend(r *Rank, dst, tag int, data []byte, out **Request) simtest.Step {
	return simtest.Seq(
		func(tk *sim.Task) { r.StartIsend(tk, dst, tag, data) },
		func(*sim.Task) {
			if out != nil {
				*out = r.LastIsend()
			}
		},
	)
}

func wait(r *Rank, req **Request) simtest.Step {
	return func(tk *sim.Task) { r.StartWait(tk, *req) }
}

func send(r *Rank, dst, tag int, data []byte) simtest.Step {
	return func(tk *sim.Task) { r.StartSend(tk, dst, tag, data) }
}

// recv runs a blocking MPI_Recv and stores the payload in *out.
func recv(r *Rank, src, tag int, out *[]byte) simtest.Step {
	return simtest.Seq(
		func(tk *sim.Task) { r.StartRecv(tk, src, tag) },
		func(*sim.Task) { *out = r.LastRecv() },
	)
}

func TestSendRecvRoundTrip(t *testing.T) {
	sys, comm := harness(t)
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	ping := []byte{1, 2, 3, 4}
	pong := []byte{5, 6, 7, 8}
	var got0, got1 []byte
	simtest.Start(sys.K, "rank1", prep(r1, 16), recv(r1, 0, 1, &got1), send(r1, 0, 2, pong))
	simtest.Start(sys.K, "rank0", prep(r0, 16), sleep(units.Microsecond), send(r0, 1, 1, ping), recv(r0, 1, 2, &got0))
	sys.Run()
	if !bytes.Equal(got1, ping) || !bytes.Equal(got0, pong) {
		t.Errorf("ping=%v pong=%v", got1, got0)
	}
	if r0.Stats.Isends != 1 || r0.Stats.Irecvs != 1 || r0.Stats.Waits != 2 {
		t.Errorf("rank0 stats: %+v", r0.Stats)
	}
}

func TestIsendIrecvNonblocking(t *testing.T) {
	sys, comm := harness(t)
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	const n = 8
	rreqs := make([]*Request, n)
	simtest.Start(sys.K, "rank1",
		prep(r1, 64),
		func(tk *sim.Task) {
			for i := range rreqs {
				rreqs[i] = r1.Irecv(tk, 0, i)
			}
		},
		func(tk *sim.Task) { r1.StartWaitall(tk, rreqs) },
		func(*sim.Task) {
			for i, req := range rreqs {
				if !req.Done() {
					t.Errorf("recv %d incomplete after waitall", i)
				}
				if want := byte(i); len(req.Data()) != 1 || req.Data()[0] != want {
					t.Errorf("recv %d data = %v", i, req.Data())
				}
			}
		},
	)
	sreqs := make([]*Request, n)
	tx := []simtest.Step{prep(r0, 64), sleep(units.Microsecond)}
	for i := range sreqs {
		tx = append(tx, isend(r0, 1, i, []byte{byte(i)}, &sreqs[i]))
	}
	tx = append(tx, func(tk *sim.Task) { r0.StartWaitall(tk, sreqs) })
	simtest.Start(sys.K, "rank0", tx...)
	sys.Run()
}

func TestTagMatching(t *testing.T) {
	sys, comm := harness(t)
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	// Two sends with distinct tags; receives posted in opposite order
	// must match by tag, not arrival order.
	var reqA, reqB, req *Request
	simtest.Start(sys.K, "rank1",
		prep(r1, 16),
		func(tk *sim.Task) {
			reqB = r1.Irecv(tk, 0, 200)
			reqA = r1.Irecv(tk, 0, 100)
		},
		wait(r1, &reqB),
		wait(r1, &reqA),
		func(*sim.Task) {
			if reqA.Data()[0] != 100 || reqB.Data()[0] != 200 {
				t.Errorf("tag matching broken: A=%v B=%v", reqA.Data(), reqB.Data())
			}
		},
	)
	simtest.Start(sys.K, "rank0",
		prep(r0, 16),
		sleep(units.Microsecond),
		isend(r0, 1, 100, []byte{100}, nil),
		isend(r0, 1, 200, []byte{200}, &req),
		wait(r0, &req),
	)
	sys.Run()
}

func TestUnexpectedThenIrecv(t *testing.T) {
	sys, comm := harness(t)
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var req *Request
	simtest.Start(sys.K, "rank1",
		prep(r1, 16),
		// Progress until the eager message is sitting in the unexpected
		// queue, then post the receive.
		simtest.While(func() bool { return r1.Worker.Stats.UnexpectedMsgs == 0 }, r1.Worker.StartProgress),
		func(tk *sim.Task) { req = r1.Irecv(tk, 0, 5) },
		wait(r1, &req),
		func(*sim.Task) {
			if req.Data()[0] != 55 {
				t.Errorf("unexpected-path data = %v", req.Data())
			}
		},
	)
	simtest.Start(sys.K, "rank0", prep(r0, 16), sleep(units.Microsecond), send(r0, 1, 5, []byte{55}))
	sys.Run()
	if r1.Worker.Stats.UnexpectedMsgs != 1 {
		t.Errorf("unexpected msgs = %d", r1.Worker.Stats.UnexpectedMsgs)
	}
}

func TestWaitRecvCountsLoops(t *testing.T) {
	sys, comm := harness(t)
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var got []byte
	simtest.Start(sys.K, "rank1", prep(r1, 16), recv(r1, 0, 1, &got))
	simtest.Start(sys.K, "rank0", prep(r0, 16), sleep(units.Microsecond), send(r0, 1, 1, []byte{1}))
	sys.Run()
	if r1.Stats.RecvWaits != 1 {
		t.Errorf("recv waits = %d", r1.Stats.RecvWaits)
	}
	if r1.Stats.RecvWaitLoops == 0 {
		t.Error("recv wait loops not counted")
	}
}

func TestIsendToUnknownRankPanics(t *testing.T) {
	sys, comm := harness(t)
	defer sys.Shutdown()
	r0 := comm.Ranks[0]
	simtest.Start(sys.K, "rank0", isend(r0, 99, 0, []byte{1}, nil))
	// The isend frame runs in kernel event context, so its panic surfaces
	// out of Run.
	defer func() {
		if recover() == nil {
			t.Error("isend to unconnected rank did not panic")
		}
	}()
	sys.Run()
}

func TestCommFullyConnected(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sys := node.NewSystem(cfg, 3)
	defer sys.Shutdown()
	comm := NewComm(sys.Nodes, cfg, uct.PIOInline)
	if len(comm.Ranks) != 3 {
		t.Fatalf("ranks = %d", len(comm.Ranks))
	}
	for i, r := range comm.Ranks {
		if len(r.eps) != 2 {
			t.Errorf("rank %d has %d connections, want 2", i, len(r.eps))
		}
	}
}

func TestThreeRankRing(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Bench.SignalPeriod = 1
	sys := node.NewSystem(cfg, 3)
	defer sys.Shutdown()
	comm := NewComm(sys.Nodes, cfg, uct.PIOInline)
	var got [3][]byte
	for i, r := range comm.Ranks {
		next := (i + 1) % 3
		prev := (i + 2) % 3
		simtest.Start(sys.K, "rank",
			prep(r, 16),
			sleep(units.Microsecond),
			isend(r, next, 7, []byte{byte(10 * (i + 1))}, nil),
			recv(r, prev, 7, &got[i]),
		)
	}
	sys.Run()
	var sums [3]byte
	for i, data := range got {
		if len(data) > 0 {
			sums[i] = data[0]
		}
	}
	if sums != [3]byte{30, 10, 20} {
		t.Errorf("ring results = %v", sums)
	}
}

func TestRequestData(t *testing.T) {
	req := &Request{}
	if req.Data() != nil {
		t.Error("incomplete request returned data")
	}
}
