package mpi

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/faults"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// faultHarness builds the two-node harness with node 1's NIC scheduled to
// crash at the given time (no restart: the peer stays dead).
func faultHarness(t *testing.T, crashAt units.Time) (*node.System, *Comm) {
	t.Helper()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.SignalPeriod = 1 // blocking sends complete via per-message CQEs
	cfg.Faults.Crashes = []faults.Crash{{Node: 1, At: crashAt}}
	sys := node.NewSystem(cfg, 2)
	comm := NewComm(sys.Nodes[:2], cfg, uct.PIOInline)
	return sys, comm
}

// TestSendToCrashedPeerErrors: a send posted after the peer died must
// complete with an error (ACK-timeout -> retry exhaustion), not hang — the
// flush-semantics contract surfaced at the MPI layer.
func TestSendToCrashedPeerErrors(t *testing.T) {
	sys, comm := faultHarness(t, units.Microseconds(5))
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var sendErr error
	var req *Request
	simtest.Start(sys.K, "rank1", prep(r1, 16))
	simtest.Start(sys.K, "rank0",
		prep(r0, 16),
		sleep(units.Microseconds(10)), // peer is dead by now
		isend(r0, 1, 1, []byte{1}, &req),
		wait(r0, &req),
		func(*sim.Task) {
			if !req.Done() {
				t.Error("request not done after Wait")
			}
			sendErr = req.Err()
		},
	)
	sys.Run()
	if sendErr == nil {
		t.Fatal("send to crashed peer completed without error")
	}
	if r0.Worker.Stats.SendFailures == 0 {
		t.Errorf("worker recorded no send failures: %+v", r0.Worker.Stats)
	}
}

// TestRecvFromCrashedPeerErrors: a receive posted before the peer died is
// cancelled by the wait loop once the transport marks the endpoint failed
// (here: a probe send exhausting its retries). A receive posted after the
// endpoint error short-circuits immediately instead of waiting for a match
// that cannot arrive — mirroring the NIC's CQEFlushErr contract for work
// posted to an errored QP.
func TestRecvFromCrashedPeerErrors(t *testing.T) {
	sys, comm := faultHarness(t, units.Microseconds(5))
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var pendingErr, lateErr error
	var lateTook units.Time
	var pending, probe, late *Request
	var start units.Time
	simtest.Start(sys.K, "rank1", prep(r1, 16))
	simtest.Start(sys.K, "rank0",
		prep(r0, 16),
		sleep(units.Microseconds(10)),
		// The posted receive cannot learn of the death on its own — the
		// probe send drives the transport to retry exhaustion, which marks
		// the endpoint and lets the wait loop cancel the receive.
		func(tk *sim.Task) { pending = r0.Irecv(tk, 1, 1) },
		isend(r0, 1, 2, []byte{2}, &probe),
		wait(r0, &probe),
		wait(r0, &pending),
		// Late post against the now-known-dead endpoint: no waiting at all.
		func(tk *sim.Task) {
			pendingErr = pending.Err()
			start = tk.Now()
			late = r0.Irecv(tk, 1, 3)
		},
		wait(r0, &late),
		func(tk *sim.Task) {
			lateErr = late.Err()
			lateTook = tk.Now() - start
		},
	)
	sys.Run()
	if pendingErr == nil {
		t.Error("pending receive against crashed peer completed without error")
	}
	if lateErr == nil {
		t.Error("late-posted receive against dead endpoint did not short-circuit with an error")
	}
	if lateTook > units.Microsecond {
		t.Errorf("late-posted receive took %v, want immediate short-circuit", lateTook)
	}
	if r0.Worker.Stats.RecvFailures == 0 {
		t.Errorf("worker recorded no recv failures: %+v", r0.Worker.Stats)
	}
}

// TestLocalCrashFlushesRecv: the rank whose own NIC dies sees its posted
// receive flushed (error recv CQE -> endpoint error -> cancelled request)
// rather than blocking forever on buffers the device will never fill.
func TestLocalCrashFlushesRecv(t *testing.T) {
	sys, comm := faultHarness(t, units.Microseconds(5))
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var recvErr error
	var req *Request
	simtest.Start(sys.K, "rank0", prep(r0, 16))
	simtest.Start(sys.K, "rank1",
		prep(r1, 16),
		func(tk *sim.Task) { req = r1.Irecv(tk, 0, 1) }, // node 1's own NIC crashes at 5us
		wait(r1, &req),
		func(*sim.Task) {
			if !req.Done() {
				t.Error("request not done after Wait")
			}
			recvErr = req.Err()
		},
	)
	sys.Run()
	if recvErr == nil {
		t.Fatal("receive on crashed node completed without error")
	}
	if fr := sys.Nodes[1].NIC.Stats().FlushedRecvs; fr == 0 {
		t.Error("crashed NIC flushed no posted receives")
	}
}

// TestWaitallMixedOutcomes: Waitall over a batch where some requests fail
// must terminate with per-request errors — failed ones report, successful
// ones stay clean.
func TestWaitallMixedOutcomes(t *testing.T) {
	sys, comm := faultHarness(t, units.Microseconds(50))
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var early, late *Request
	var got []byte
	simtest.Start(sys.K, "rank1",
		prep(r1, 16),
		// Match only the pre-crash send, then stop progressing.
		recv(r1, 0, 1, &got),
		func(*sim.Task) {
			if len(got) != 1 || got[0] != 7 {
				t.Errorf("pre-crash recv = %v", got)
			}
		},
	)
	simtest.Start(sys.K, "rank0",
		prep(r0, 16),
		sleep(units.Microsecond),
		isend(r0, 1, 1, []byte{7}, &early), // completes before the crash
		sleep(units.Microseconds(100)),     // peer dies at 50us
		isend(r0, 1, 2, []byte{8}, &late),
		func(tk *sim.Task) { r0.StartWaitall(tk, []*Request{early, late}) },
	)
	sys.Run()
	if !early.Done() || !late.Done() {
		t.Fatalf("waitall did not terminate both requests: early=%v late=%v", early.Done(), late.Done())
	}
	if early.Err() != nil {
		t.Errorf("pre-crash send errored: %v", early.Err())
	}
	if late.Err() == nil {
		t.Error("post-crash send completed without error")
	}
}
