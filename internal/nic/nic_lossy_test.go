package nic

import (
	"bytes"
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/faults"
	"breakband/internal/memsim"
	"breakband/internal/mlx"
	"breakband/internal/pcie"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/units"
)

// lossyRig is the two-NIC rig with a fault schedule compiled into the
// two-host switched fabric's egresses and the reliability timers armed.
func lossyRig(t *testing.T, cfg Config, fcfg faults.Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := topo.NewFabric(k, fabric.Config{
		WireProp:      units.Nanoseconds(270),
		SwitchLatency: units.Nanoseconds(108),
	}, topo.Spec{Kind: topo.SingleSwitch}, 2)
	mem0 := memsim.New(1 << 20)
	link0 := pcie.NewLink(k, rigProp)
	rc0 := pcie.NewRootComplex(k, mem0, link0, rigRCToMem)
	nic0 := New(k, 0, mem0, link0, net, cfg)

	mem1 := memsim.New(1 << 20)
	link1 := pcie.NewLink(k, rigProp)
	pcie.NewRootComplex(k, mem1, link1, rigRCToMem)
	nic1 := New(k, 1, mem1, link1, net, cfg)

	net.InjectFaults(faults.MustInjector(1, fcfg))

	qp0 := nic0.CreateQP(64, 256)
	qp1 := nic1.CreateQP(64, 256)
	Connect(qp0, qp1)
	return &rig{k: k, mem0: mem0, mem1: mem1, rc0: rc0, link1: link1, nic0: nic0, nic1: nic1, qp0: qp0, qp1: qp1}
}

// lossyConfig is the rig NIC config with a short ACK timeout so retry
// rounds fit in microseconds of simulated time.
func lossyConfig() Config {
	return Config{AckTimeout: units.Microseconds(3)}
}

// TestAckLossDuplicateSuppressed drops the responder's first ACK: the
// initiator must time out and replay, and the responder must recognize
// the replayed PSN as a duplicate — re-ACKing without delivering twice.
func TestAckLossDuplicateSuppressed(t *testing.T) {
	// The responder's first egress frame is the ACK for the data frame.
	r := lossyRig(t, lossyConfig(), faults.Config{
		DropNth: []faults.ScriptedDrop{{Port: fabric.EgressName(1), N: 1}},
	})
	dst := r.mem1.Alloc("dst", 64, 8)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	r.k.At(0, func() {
		r.pioPost(t, &mlx.WQE{
			Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: true,
			WQEIdx: 0, QPN: r.qp0.QPN, Payload: payload, RemoteAddr: dst.Base,
		})
	})
	r.k.Run()

	if got := r.mem1.Read(dst.Base, 8); !bytes.Equal(got, payload) {
		t.Errorf("remote memory = %v", got)
	}
	if r.qp0.AckTimeouts != 1 || r.qp0.Retransmits != 1 {
		t.Errorf("timeouts/retransmits = %d/%d, want 1/1", r.qp0.AckTimeouts, r.qp0.Retransmits)
	}
	if r.qp1.RxFrames != 1 || r.qp1.DupRxFrames != 1 {
		t.Errorf("responder rx/dup = %d/%d, want 1/1 (duplicate must be suppressed)",
			r.qp1.RxFrames, r.qp1.DupRxFrames)
	}
	if r.qp0.Errored {
		t.Fatal("QP errored although the replay was ACKed")
	}
	// Exactly one successful completion despite the wire-level duplicate.
	if r.qp0.CQEsWritten != 1 {
		t.Errorf("CQEs written = %d, want 1", r.qp0.CQEsWritten)
	}
	cqe, err := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(0), mlx.CQESize))
	if err != nil {
		t.Fatal(err)
	}
	if cqe.Status != mlx.CQEOK || cqe.WQECounter != 0 {
		t.Errorf("send CQE = %+v, want OK counter=0", cqe)
	}
}

// TestDataLossSequenceNak drops the first data frame of a two-WQE burst:
// the responder sees PSN 1 while expecting 0, NAKs the gap, and the
// initiator replays the tail immediately — well before its ACK timeout.
func TestDataLossSequenceNak(t *testing.T) {
	cfg := lossyConfig()
	cfg.AckTimeout = units.Microseconds(100) // NAK recovery must beat this
	r := lossyRig(t, cfg, faults.Config{
		DropNth: []faults.ScriptedDrop{{Port: fabric.EgressName(0), N: 1}},
	})
	dst := r.mem1.Alloc("dst", 64, 16)
	r.k.At(0, func() {
		for i := 0; i < 2; i++ {
			r.pioPost(t, &mlx.WQE{
				Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: i == 1,
				WQEIdx: uint16(i), QPN: r.qp0.QPN,
				Payload: []byte{byte(10 + i)}, RemoteAddr: dst.Base + uint64(i),
			})
		}
	})
	r.k.Run()

	if got := r.mem1.Read(dst.Base, 2); !bytes.Equal(got, []byte{10, 11}) {
		t.Errorf("remote memory = %v, want [10 11]", got)
	}
	if r.qp1.SeqNaksSent != 1 || r.qp0.SeqNaksRecv != 1 {
		t.Errorf("seq NAKs sent/recv = %d/%d, want 1/1", r.qp1.SeqNaksSent, r.qp0.SeqNaksRecv)
	}
	if r.qp0.AckTimeouts != 0 {
		t.Errorf("ACK timeout fired %d times; the NAK should have recovered first", r.qp0.AckTimeouts)
	}
	if r.qp0.Retransmits != 2 {
		t.Errorf("retransmits = %d, want 2 (go-back-N from the lost PSN)", r.qp0.Retransmits)
	}
	if r.qp1.RxDiscarded == 0 {
		t.Error("the out-of-sequence frame was not discarded")
	}
	if r.qp0.Errored {
		t.Fatal("QP errored")
	}
	if r.k.Now() > units.Microseconds(50) {
		t.Errorf("recovery took %v; NAK-driven replay should not wait for the ACK timeout", r.k.Now())
	}
}

// TestSequenceNakLossTimeoutCovers drops a data frame and then the
// sequence NAK it provokes: the ACK timeout is the recovery of last
// resort and must replay the window.
func TestSequenceNakLossTimeoutCovers(t *testing.T) {
	r := lossyRig(t, lossyConfig(), faults.Config{
		DropNth: []faults.ScriptedDrop{
			{Port: fabric.EgressName(0), N: 1}, // first data frame
			{Port: fabric.EgressName(1), N: 1}, // the SeqNak it provokes
		},
	})
	dst := r.mem1.Alloc("dst", 64, 16)
	r.k.At(0, func() {
		for i := 0; i < 2; i++ {
			r.pioPost(t, &mlx.WQE{
				Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: i == 1,
				WQEIdx: uint16(i), QPN: r.qp0.QPN,
				Payload: []byte{byte(20 + i)}, RemoteAddr: dst.Base + uint64(i),
			})
		}
	})
	r.k.Run()

	if got := r.mem1.Read(dst.Base, 2); !bytes.Equal(got, []byte{20, 21}) {
		t.Errorf("remote memory = %v, want [20 21]", got)
	}
	if r.qp1.SeqNaksSent != 1 {
		t.Errorf("seq NAKs sent = %d, want 1 (then dropped)", r.qp1.SeqNaksSent)
	}
	if r.qp0.SeqNaksRecv != 0 {
		t.Errorf("seq NAKs received = %d, want 0 (the NAK was lost)", r.qp0.SeqNaksRecv)
	}
	if r.qp0.AckTimeouts == 0 {
		t.Error("ACK timeout never fired; nothing else could recover the loss")
	}
	if r.qp0.Errored {
		t.Fatal("QP errored")
	}
	if r.qp0.CQEsWritten != 1 {
		t.Errorf("CQEs written = %d, want 1", r.qp0.CQEsWritten)
	}
}

// TestTotalLossRetryExhaustion runs against a 100% drop link: the
// initiator must burn its whole retry budget in timeout rounds and then
// fail the QP with a transport-retry-exceeded error CQE — not hang, not
// retry forever.
func TestTotalLossRetryExhaustion(t *testing.T) {
	r := lossyRig(t, lossyConfig(), faults.Config{DropRate: 1.0})
	r.k.At(0, func() {
		r.pioPost(t, &mlx.WQE{
			Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: true,
			WQEIdx: 0, QPN: r.qp0.QPN, Payload: []byte{1}, RemoteAddr: r.mem1.Alloc("dst", 64, 8).Base,
		})
	})
	r.k.Run()

	if !r.qp0.Errored {
		t.Fatal("QP survived a 100% lossy link")
	}
	if want := uint64(RetryCnt + 1); r.qp0.AckTimeouts != want {
		t.Errorf("ACK timeouts = %d, want %d (budget + the failing round)", r.qp0.AckTimeouts, want)
	}
	if r.qp0.Retransmits != uint64(RetryCnt) {
		t.Errorf("retransmit rounds = %d, want %d", r.qp0.Retransmits, RetryCnt)
	}
	if r.qp1.RxFrames != 0 {
		t.Errorf("receiver processed %d frames over a dead link", r.qp1.RxFrames)
	}
	if r.qp0.CQEsWritten != 1 {
		t.Fatalf("CQEs written = %d, want 1 error CQE", r.qp0.CQEsWritten)
	}
	cqe, err := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(0), mlx.CQESize))
	if err != nil {
		t.Fatal(err)
	}
	if cqe.Op != mlx.CQEReq || cqe.Status != mlx.CQERetryExc || cqe.WQECounter != 0 {
		t.Errorf("error CQE = %+v, want CQEReq status=%d counter=0", cqe, mlx.CQERetryExc)
	}
}

// TestTimeoutBackoffExponential checks the timeout streak doubles the
// wait up to its cap: with every frame dropped, round N fires
// min(AckTimeout << N, 16 x AckTimeout) after the previous one.
func TestTimeoutBackoffExponential(t *testing.T) {
	cfg := lossyConfig()
	r := lossyRig(t, cfg, faults.Config{DropRate: 1.0})
	r.k.At(0, func() {
		r.pioPost(t, &mlx.WQE{
			Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: true,
			WQEIdx: 0, QPN: r.qp0.QPN, Payload: []byte{1}, RemoteAddr: r.mem1.Alloc("dst", 64, 8).Base,
		})
	})
	r.k.Run()
	// Rounds at ~3, +6, +12, +24, +48 µs, then every 48 µs at the 16x
	// cap until the RetryCnt+1st: 237 µs in all. A flat 3 µs timeout
	// would end by 24 µs, an uncapped ladder at 765 µs.
	base := cfg.AckTimeout
	var minEnd units.Time
	for i := 0; i <= RetryCnt; i++ {
		minEnd += min(base<<i, 16*base)
	}
	if now := r.k.Now(); now < minEnd || now >= minEnd+base {
		t.Errorf("run ended at %v, want within [%v, %v) (backoff not exponential up to its cap)", now, minEnd, minEnd+base)
	}
	if want := uint64(RetryCnt + 1); r.qp0.AckTimeouts != want {
		t.Errorf("ACK timeouts = %d, want %d", r.qp0.AckTimeouts, want)
	}
}
