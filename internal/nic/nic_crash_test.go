package nic

import (
	"encoding/binary"
	"testing"

	"breakband/internal/mlx"
	"breakband/internal/units"
)

// TestCrashMidRnrBackoffCancelsTimers: a sender parked in an RNR backoff
// window holds an armed retry timer. A NIC crash in that window must cancel
// it — the QP fails with one fatal error CQE and the simulation drains at
// the crash instant instead of being pinned a backoff (or a whole retry
// ladder) into the future by a timer that would only fire to find the QP
// already dead.
func TestCrashMidRnrBackoffCancelsTimers(t *testing.T) {
	r := newRig(t)
	// No receive is ever posted: the send is RNR-NAKed and the sender backs
	// off, doubling each round. By 4us it has been NAKed at least twice and
	// is waiting out a backoff with the retry timer armed.
	r.k.At(0, func() {
		r.pioPost(t, &mlx.WQE{
			Opcode: mlx.OpSend, Inline: true, Signaled: true,
			WQEIdx: 0, QPN: r.qp0.QPN, Payload: []byte{1},
		})
	})
	crashAt := units.Microseconds(4)
	r.k.At(crashAt, func() { r.nic0.Crash() })
	r.k.Run()

	if !r.qp0.Errored || r.qp0.QPFails != 1 {
		t.Fatalf("errored=%v qpfails=%d, want errored QP", r.qp0.Errored, r.qp0.QPFails)
	}
	// The crash hit mid-ladder, not after natural exhaustion.
	if r.qp0.RnrRetransmits == 0 || r.qp0.RnrRetransmits >= uint64(RnrRetryLimit) {
		t.Errorf("retransmit rounds = %d, want mid-ladder (0 < n < %d)",
			r.qp0.RnrRetransmits, RnrRetryLimit)
	}
	if r.qp0.RetryExhausted != 0 {
		t.Errorf("RetryExhausted = %d, want 0 (crash, not budget exhaustion)", r.qp0.RetryExhausted)
	}
	// Timer hygiene: with the backoff timer cancelled nothing outlives the
	// crash, so virtual time stops at the crash instant. A leaked timer
	// would fire 2-32us later and push the end-time out.
	if end := r.k.Now(); end > crashAt+units.Microseconds(1) {
		t.Errorf("simulation ended at %v, want ~%v (leaked recovery timer?)", end, crashAt)
	}
	// The outstanding WQE retired with exactly one fatal completion.
	if r.qp0.CQEsWritten != 1 {
		t.Fatalf("CQEs written = %d, want 1 fatal CQE", r.qp0.CQEsWritten)
	}
	cqe, err := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(0), mlx.CQESize))
	if err != nil {
		t.Fatal(err)
	}
	if cqe.Op != mlx.CQEReq || cqe.Status != mlx.CQEFatalErr || cqe.WQECounter != 0 {
		t.Errorf("crash CQE = %+v, want CQEReq status=%d counter=0", cqe, mlx.CQEFatalErr)
	}
}

// TestCrashFlushesDoorbellWQEs: descriptors rung via the DoorBell around a
// crash must all terminate with completions — fetched or not. Software's
// in-flight accounting counts posted WQEs against CQEs, so a rung
// descriptor that silently vanishes wedges every layer above.
func TestCrashFlushesDoorbellWQEs(t *testing.T) {
	r := newRig(t)
	dst := r.mem1.Alloc("dst", 256, 8)
	for i := 0; i < 3; i++ {
		w := &mlx.WQE{
			Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: true,
			WQEIdx: uint16(i), QPN: r.qp0.QPN,
			Payload: []byte{byte(10 + i)}, RemoteAddr: dst.Base + uint64(i),
		}
		enc, _ := w.Encode()
		r.mem0.Write(r.qp0.SQ.EntryAddr(uint16(i)), enc[:])
	}
	r.k.At(0, func() {
		var db [8]byte
		binary.LittleEndian.PutUint16(db[:], 3)
		r.rc0.MMIOWrite(r.qp0.DBAddr, db[:])
	})
	// The crash lands while the doorbell MWr or the first descriptor fetch
	// is still in flight on PCIe: the driver must flush whatever the device
	// never got to.
	r.k.At(units.Nanoseconds(300), func() { r.nic0.Crash() })
	r.k.Run()

	if !r.qp0.Errored {
		t.Fatal("QP not errored after NIC crash")
	}
	// Every rung descriptor terminated: three completions, all errors, in
	// counter order.
	if r.qp0.CQEsWritten != 3 {
		t.Fatalf("CQEs written = %d, want 3 (one per rung WQE)", r.qp0.CQEsWritten)
	}
	for i := uint16(0); i < 3; i++ {
		cqe, err := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(i), mlx.CQESize))
		if err != nil {
			t.Fatal(err)
		}
		if cqe.Status == mlx.CQEOK {
			t.Errorf("CQE %d completed OK on a crashed NIC: %+v", i, cqe)
		}
		if cqe.WQECounter != i {
			t.Errorf("CQE %d carries counter %d, want counter order preserved", i, cqe.WQECounter)
		}
	}
}

// TestCrashFlushesPostedRecvs: posted receives on a crashed NIC flush with
// error recv CQEs (and count in FlushedRecvs), so a blocked receiver learns
// its buffers are dead instead of waiting forever.
func TestCrashFlushesPostedRecvs(t *testing.T) {
	r := newRig(t)
	r.k.At(0, func() {
		r.qp1.PostRecv(0)
		r.qp1.PostRecv(0)
	})
	r.k.At(units.Microseconds(1), func() { r.nic1.Crash() })
	r.k.Run()

	if r.qp1.FlushedRecvs != 2 || r.qp1.RecvPosted() != 0 {
		t.Fatalf("FlushedRecvs=%d RecvPosted=%d, want both receives flushed",
			r.qp1.FlushedRecvs, r.qp1.RecvPosted())
	}
	for i := uint16(0); i < 2; i++ {
		cqe, err := mlx.DecodeCQE(r.mem1.Read(r.qp1.RecvCQ.EntryAddr(i), mlx.CQESize))
		if err != nil {
			t.Fatal(err)
		}
		if cqe.Op != mlx.CQERecv || cqe.Status != mlx.CQEFlushErr {
			t.Errorf("recv CQE %d = %+v, want CQERecv status=%d", i, cqe, mlx.CQEFlushErr)
		}
	}
	s := r.nic1.Stats()
	if s.FlushedRecvs != 2 || s.QPFails != 1 {
		t.Errorf("nic stats = %+v, want FlushedRecvs=2 QPFails=1", s)
	}
	// A restart wipes the QP table but keeps the dead generation's counters.
	r.nic1.Restart()
	if r.nic1.Dead() {
		t.Error("NIC still dead after Restart")
	}
	if s := r.nic1.Stats(); s.FlushedRecvs != 2 {
		t.Errorf("retired FlushedRecvs = %d, want counters to survive restart", s.FlushedRecvs)
	}
}

// TestRestartWipesLiveGeneration: a restart retires every QP created so
// far. Frames and ACKs still in flight toward them are discarded and
// counted in CrashDiscards, a new QP takes the next QPN and BAR window,
// and a post software still rings on a wiped QP's BlueFlame window
// reaches that QP and completes with CQEFlushErr.
func TestRestartWipesLiveGeneration(t *testing.T) {
	// write is QP qpn's idx-th one-byte RDMA write, to addr on node 1.
	write := func(qpn uint32, idx uint16, addr uint64) *mlx.WQE {
		return &mlx.WQE{
			Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: true,
			WQEIdx: idx, QPN: qpn, Payload: []byte{byte(idx + 1)}, RemoteAddr: addr,
		}
	}
	r := newRig(t)
	dst := r.mem1.Alloc("dst", 64, 8)
	// The first write is on the wire when the initiator crashes and comes
	// back: the target accepts it, and its ACK reaches a wiped QP.
	r.k.At(0, func() { r.pioPost(t, write(r.qp0.QPN, 0, dst.Base)) })
	var fresh *QP
	r.k.At(units.Nanoseconds(600), func() {
		r.nic0.Crash()
		r.nic0.Restart()
		fresh = r.nic0.CreateQP(64, 256)
	})
	// Long after the stale ACK, software rings the wiped QP once more.
	r.k.At(units.Microseconds(5), func() { r.pioPost(t, write(r.qp0.QPN, 1, dst.Base)) })
	r.k.Run()

	if r.qp1.RxFrames != 1 {
		t.Fatalf("target received %d frames, want the write that left before the crash", r.qp1.RxFrames)
	}
	if s := r.nic0.Stats(); s.CrashDiscards != 1 {
		t.Errorf("initiator CrashDiscards = %d, want 1 (the stale ACK)", s.CrashDiscards)
	}
	if fresh.QPN != r.qp0.QPN+1 || fresh.DBAddr != r.qp0.DBAddr+barStride || fresh.BFAddr != r.qp0.BFAddr+barStride {
		t.Errorf("new QP %d at DB %#x BF %#x, want QPN %d and the next BAR window after %#x",
			fresh.QPN, fresh.DBAddr, fresh.BFAddr, r.qp0.QPN+1, r.qp0.DBAddr)
	}
	if qps := r.nic0.QPs(); len(qps) != 1 || qps[0] != fresh {
		t.Errorf("live QPs = %v, want only the new QP", qps)
	}
	// The wiped QP's completions: the crash's fatal CQE for the write in
	// flight, then the flush of the post rung after the restart.
	if r.qp0.Flushed != 1 || r.qp0.CQEsWritten != 2 {
		t.Fatalf("wiped QP flushed %d, wrote %d CQEs; want 1 flush after the fatal CQE", r.qp0.Flushed, r.qp0.CQEsWritten)
	}
	for i, want := range []uint8{mlx.CQEFatalErr, mlx.CQEFlushErr} {
		cqe, err := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(uint16(i)), mlx.CQESize))
		if err != nil {
			t.Fatal(err)
		}
		if cqe.Status != want || cqe.WQECounter != uint16(i) {
			t.Errorf("CQE %d = %+v, want status %d counter %d", i, cqe, want, i)
		}
	}

	// A data frame in flight toward a target that crashes and comes back
	// addresses a wiped QP: it is discarded, not delivered.
	r2 := newRig(t)
	dst2 := r2.mem1.Alloc("dst", 64, 8)
	r2.k.At(0, func() {
		r2.nic1.Crash()
		r2.nic1.Restart()
		r2.pioPost(t, write(r2.qp0.QPN, 0, dst2.Base))
	})
	r2.k.Run()
	if s := r2.nic1.Stats(); s.CrashDiscards != 1 || r2.qp1.RxFrames != 0 {
		t.Errorf("target CrashDiscards = %d, RxFrames = %d; want the stale frame discarded", s.CrashDiscards, r2.qp1.RxFrames)
	}
	if got := r2.mem1.Read(dst2.Base, 1); got[0] != 0 {
		t.Errorf("stale frame wrote %d into the target's memory", got[0])
	}
}
