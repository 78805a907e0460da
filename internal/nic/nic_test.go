package nic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/memsim"
	"breakband/internal/mlx"
	"breakband/internal/pcie"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/units"
)

// The rigs' PCIe propagation and Root Complex commit latency, round
// numbers near the calibrated ones.
const (
	rigProp    = 134 * units.Nanosecond
	rigRCToMem = 240 * units.Nanosecond
)

// rig is a two-node hardware harness without any software stack.
type rig struct {
	k          *sim.Kernel
	mem0, mem1 *memsim.Memory
	rc0        *pcie.RootComplex
	link1      *pcie.Link
	nic0, nic1 *NIC
	qp0, qp1   *QP
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := topo.NewFabric(k, fabric.Config{
		WireProp:      units.Nanoseconds(270),
		SwitchLatency: units.Nanoseconds(108),
	}, topo.Spec{Kind: topo.SingleSwitch}, 2)
	mem0 := memsim.New(1 << 20)
	link0 := pcie.NewLink(k, rigProp)
	rc0 := pcie.NewRootComplex(k, mem0, link0, rigRCToMem)
	nic0 := New(k, 0, mem0, link0, net, Config{})

	mem1 := memsim.New(1 << 20)
	link1 := pcie.NewLink(k, rigProp)
	pcie.NewRootComplex(k, mem1, link1, rigRCToMem)
	nic1 := New(k, 1, mem1, link1, net, Config{})

	qp0 := nic0.CreateQP(64, 256)
	qp1 := nic1.CreateQP(64, 256)
	Connect(qp0, qp1)
	return &rig{k: k, mem0: mem0, mem1: mem1, rc0: rc0, link1: link1, nic0: nic0, nic1: nic1, qp0: qp0, qp1: qp1}
}

// pioPost PIO-writes a WQE to qp0's BlueFlame register via the RC.
func (r *rig) pioPost(t *testing.T, w *mlx.WQE) {
	t.Helper()
	enc, err := w.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r.rc0.MMIOWrite(r.qp0.BFAddr, enc[:])
}

func TestPIORDMAWrite(t *testing.T) {
	r := newRig(t)
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
	// Signaled: one CQE DMA-written to the send CQ on node 0.
	if r.qp0.CQEsWritten != 1 {
		t.Errorf("CQEs written = %d", r.qp0.CQEsWritten)
	}
	cqe, err := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(0), mlx.CQESize))
	if err != nil {
		t.Fatal(err)
	}
	if cqe.Op != mlx.CQEReq || cqe.WQECounter != 0 || cqe.Gen != r.qp0.SendCQ.Gen(0) {
		t.Errorf("send CQE = %+v", cqe)
	}
}

func TestUnsignaledBatch(t *testing.T) {
	r := newRig(t)
	dst := r.mem1.Alloc("dst", 64, 8)
	r.k.At(0, func() {
		for i := 0; i < 4; i++ {
			r.pioPost(t, &mlx.WQE{
				Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: i == 3,
				WQEIdx: uint16(i), QPN: r.qp0.QPN,
				Payload: []byte{byte(i)}, RemoteAddr: dst.Base,
			})
		}
	})
	r.k.Run()
	if r.qp0.CQEsWritten != 1 {
		t.Errorf("unsignaled batch produced %d CQEs, want 1", r.qp0.CQEsWritten)
	}
	cqe, _ := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(0), mlx.CQESize))
	if cqe.WQECounter != 3 {
		t.Errorf("batch CQE counter = %d, want 3", cqe.WQECounter)
	}
}

func TestSendWithInlineScatter(t *testing.T) {
	r := newRig(t)
	r.qp1.PostRecv(0)
	payload := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	r.k.At(0, func() {
		r.pioPost(t, &mlx.WQE{
			Opcode: mlx.OpSend, Inline: true, Signaled: true,
			WQEIdx: 0, QPN: r.qp0.QPN, AmID: 5, Payload: payload,
		})
	})
	r.k.Run()
	// One recv CQE on node 1 carrying the payload inline.
	cqe, err := mlx.DecodeCQE(r.mem1.Read(r.qp1.RecvCQ.EntryAddr(0), mlx.CQESize))
	if err != nil {
		t.Fatal(err)
	}
	if cqe.Op != mlx.CQERecv || cqe.AmID != 5 || !bytes.Equal(cqe.Payload, payload) {
		t.Errorf("recv CQE = %+v", cqe)
	}
	if r.qp1.RecvPosted() != 0 {
		t.Error("receive credit not consumed")
	}
}

func TestSendLargePayloadUsesBuffer(t *testing.T) {
	r := newRig(t)
	buf := r.mem1.Alloc("rxbuf", 256, 8)
	r.qp1.PostRecv(buf.Base)
	payload := bytes.Repeat([]byte{7}, 64) // > ScatterMax
	// Large sends arrive via the DoorBell+gather path in practice; here
	// the frame payload is what matters, so use a gather WQE through the
	// ring.
	w := &mlx.WQE{
		Opcode: mlx.OpSend, Inline: false, Signaled: true,
		WQEIdx: 0, QPN: r.qp0.QPN, GatherAddr: 0, GatherLen: 64,
	}
	stage := r.mem0.Alloc("stage", 64, 8)
	r.mem0.Write(stage.Base, payload)
	w.GatherAddr = stage.Base
	enc, _ := w.Encode()
	r.mem0.Write(r.qp0.SQ.EntryAddr(0), enc[:])
	r.k.At(0, func() {
		var db [8]byte
		binary.LittleEndian.PutUint16(db[:], 1)
		r.rc0.MMIOWrite(r.qp0.DBAddr, db[:])
	})
	r.k.Run()
	if got := r.mem1.Read(buf.Base, 64); !bytes.Equal(got, payload) {
		t.Error("large payload not written to the posted buffer")
	}
	cqe, _ := mlx.DecodeCQE(r.mem1.Read(r.qp1.RecvCQ.EntryAddr(0), mlx.CQESize))
	if cqe.ByteCnt != 64 {
		t.Errorf("recv CQE byte count = %d", cqe.ByteCnt)
	}
}

func TestRNRNakRetryDelivers(t *testing.T) {
	r := newRig(t)
	payload := []byte{1, 2, 3}
	// No receive posted on qp1 yet: the send is refused with an RNR NAK
	// and the sender backs off. A receive posted while the sender is
	// waiting lets a later retransmission land.
	r.k.At(0, func() {
		r.pioPost(t, &mlx.WQE{
			Opcode: mlx.OpSend, Inline: true, Signaled: true,
			WQEIdx: 0, QPN: r.qp0.QPN, AmID: 7, Payload: payload,
		})
	})
	r.k.At(units.Microseconds(5), func() { r.qp1.PostRecv(0) })
	r.k.Run()

	if r.qp1.RNRNaksSent == 0 || r.qp0.RNRNaksRecv == 0 {
		t.Errorf("NAKs sent/recv = %d/%d, want > 0", r.qp1.RNRNaksSent, r.qp0.RNRNaksRecv)
	}
	if r.qp0.RnrRetransmits == 0 {
		t.Errorf("no retransmission rounds ran")
	}
	if r.qp0.RnrStall == 0 {
		t.Errorf("no backoff stall time accumulated")
	}
	if r.qp0.Errored {
		t.Fatalf("QP errored although a receive was eventually posted")
	}
	// The retransmission delivered exactly once: one recv CQE with the
	// payload, one successful send CQE.
	cqe, err := mlx.DecodeCQE(r.mem1.Read(r.qp1.RecvCQ.EntryAddr(0), mlx.CQESize))
	if err != nil {
		t.Fatal(err)
	}
	if cqe.Op != mlx.CQERecv || cqe.AmID != 7 || !bytes.Equal(cqe.Payload, payload) {
		t.Errorf("recv CQE = %+v", cqe)
	}
	if r.qp1.RxFrames != 1 {
		t.Errorf("RxFrames = %d, want exactly 1 (no duplicate delivery)", r.qp1.RxFrames)
	}
	scqe, err := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(0), mlx.CQESize))
	if err != nil {
		t.Fatal(err)
	}
	if scqe.Status != mlx.CQEOK {
		t.Errorf("send CQE status = %d, want OK", scqe.Status)
	}
}

func TestRNRRetryExhaustionErrorCQE(t *testing.T) {
	r := newRig(t)
	// No receive is ever posted: every retransmission is NAKed again until
	// the retry budget runs out and the NIC fails the WQE with an error
	// CQE instead of retrying forever (or silently dropping).
	r.k.At(0, func() {
		r.pioPost(t, &mlx.WQE{
			Opcode: mlx.OpSend, Inline: true, Signaled: true,
			WQEIdx: 0, QPN: r.qp0.QPN, Payload: []byte{1},
		})
	})
	r.k.Run()

	if !r.qp0.Errored || r.qp0.RetryExhausted != 1 {
		t.Fatalf("QP not errored after exhaustion: errored=%v exhausted=%d",
			r.qp0.Errored, r.qp0.RetryExhausted)
	}
	if want := uint64(RnrRetryLimit + 1); r.qp0.RNRNaksRecv != want {
		t.Errorf("NAKs received = %d, want %d (limit+1)", r.qp0.RNRNaksRecv, want)
	}
	if r.qp0.RnrRetransmits != uint64(RnrRetryLimit) {
		t.Errorf("retransmit rounds = %d, want %d", r.qp0.RnrRetransmits, RnrRetryLimit)
	}
	// The fixed backoff doubles from 2 us to its 32 us cap, one wait per
	// retransmit round: 2+4+8+16+32+32+32.
	if want := units.Microseconds(126); r.qp0.RnrStall != want {
		t.Errorf("RNR stall = %v, want %v", r.qp0.RnrStall, want)
	}
	// Exactly one CQE: the error completion retiring the failed WQE.
	if r.qp0.CQEsWritten != 1 {
		t.Fatalf("CQEs written = %d, want 1 error CQE", r.qp0.CQEsWritten)
	}
	cqe, err := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(0), mlx.CQESize))
	if err != nil {
		t.Fatal(err)
	}
	if cqe.Op != mlx.CQEReq || cqe.Status != mlx.CQERnrRetryExc || cqe.WQECounter != 0 {
		t.Errorf("error CQE = %+v, want CQEReq status=%d counter=0", cqe, mlx.CQERnrRetryExc)
	}
	// Nothing was ever delivered.
	if r.qp1.RxFrames != 0 {
		t.Errorf("receiver processed %d frames", r.qp1.RxFrames)
	}
}

func TestPostAfterExhaustionFlushes(t *testing.T) {
	r := newRig(t)
	// WQE 0 exhausts its RNR retries (no receive is ever posted). A WQE
	// posted afterwards — software may race the error CQE — must be
	// flushed with an error completion, not transmitted and not panicked
	// on.
	r.k.At(0, func() {
		r.pioPost(t, &mlx.WQE{
			Opcode: mlx.OpSend, Inline: true, Signaled: true,
			WQEIdx: 0, QPN: r.qp0.QPN, Payload: []byte{1},
		})
	})
	r.k.At(units.Microseconds(500), func() {
		r.pioPost(t, &mlx.WQE{
			Opcode: mlx.OpSend, Inline: true, Signaled: true,
			WQEIdx: 1, QPN: r.qp0.QPN, Payload: []byte{2},
		})
	})
	r.k.Run()

	if !r.qp0.Errored || r.qp0.Flushed != 1 {
		t.Fatalf("errored=%v flushed=%d, want errored with 1 flushed WQE", r.qp0.Errored, r.qp0.Flushed)
	}
	if r.qp0.CQEsWritten != 2 {
		t.Fatalf("CQEs written = %d, want the error CQE plus the flush CQE", r.qp0.CQEsWritten)
	}
	cqe, err := mlx.DecodeCQE(r.mem0.Read(r.qp0.SendCQ.EntryAddr(1), mlx.CQESize))
	if err != nil {
		t.Fatal(err)
	}
	if cqe.Status != mlx.CQEFlushErr || cqe.WQECounter != 1 {
		t.Errorf("flush CQE = %+v, want status=%d counter=1", cqe, mlx.CQEFlushErr)
	}
	// Nothing of either WQE reached the wire after the failure.
	if r.qp1.RxFrames != 0 {
		t.Errorf("receiver processed %d frames", r.qp1.RxFrames)
	}
}

func TestRNRNakRacedWithInFlightFrames(t *testing.T) {
	r := newRig(t)
	// Three back-to-back sends with no receive posted: the first is
	// refused, and the two frames already in flight behind it arrive
	// during recovery and must be discarded — then replayed in order by
	// the go-back-N retransmission once receives exist.
	r.k.At(0, func() {
		for i := 0; i < 3; i++ {
			r.pioPost(t, &mlx.WQE{
				Opcode: mlx.OpSend, Inline: true, Signaled: true,
				WQEIdx: uint16(i), QPN: r.qp0.QPN, Payload: []byte{byte(10 + i)},
			})
		}
	})
	r.k.At(units.Microseconds(1), func() {
		for i := 0; i < 3; i++ {
			r.qp1.PostRecv(0)
		}
	})
	r.k.Run()

	if r.qp1.RxDiscarded < 2 {
		t.Errorf("RxDiscarded = %d, want >= 2 (trailing in-flight frames)", r.qp1.RxDiscarded)
	}
	if r.qp0.Errored {
		t.Fatal("QP errored; replay should have delivered")
	}
	// All three delivered exactly once, in order.
	if r.qp1.RxFrames != 3 {
		t.Fatalf("RxFrames = %d, want 3", r.qp1.RxFrames)
	}
	for i := 0; i < 3; i++ {
		cqe, err := mlx.DecodeCQE(r.mem1.Read(r.qp1.RecvCQ.EntryAddr(uint16(i)), mlx.CQESize))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cqe.Payload, []byte{byte(10 + i)}) {
			t.Errorf("recv CQE %d payload = %v", i, cqe.Payload)
		}
	}
}

// newBudgetRig builds a back-to-back rig whose receiver NIC holds at most
// budget frames while their host writes wait to issue.
func newBudgetRig(t *testing.T, budget int) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := topo.NewFabric(k, fabric.Config{
		WireProp: units.Nanoseconds(270),
	}, topo.Spec{Kind: topo.BackToBack}, 2)
	mem0 := memsim.New(1 << 20)
	link0 := pcie.NewLink(k, rigProp)
	rc0 := pcie.NewRootComplex(k, mem0, link0, rigRCToMem)
	nic0 := New(k, 0, mem0, link0, net, Config{})

	mem1 := memsim.New(1 << 20)
	link1 := pcie.NewLink(k, rigProp)
	pcie.NewRootComplex(k, mem1, link1, rigRCToMem)
	nic1 := New(k, 1, mem1, link1, net, Config{RxBudget: budget})

	qp0 := nic0.CreateQP(64, 256)
	qp1 := nic1.CreateQP(64, 256)
	Connect(qp0, qp1)
	return &rig{k: k, mem0: mem0, mem1: mem1, rc0: rc0, link1: link1, nic0: nic0, nic1: nic1, qp0: qp0, qp1: qp1}
}

func TestRxBudgetBoundsHeldFramesAndPend(t *testing.T) {
	const budget = 1
	r := newBudgetRig(t, budget)
	dst := r.mem1.Alloc("dst", 256, 8)
	// The receiver's host stops issuing writes for the first 3 us, so the
	// first write's MWr pends and its frame is held (budget 1). The other
	// five of the six back-to-back RDMA writes must be NAKed and replayed
	// — never buffered past the budget.
	r.link1.PauseUp()
	r.k.At(units.Microseconds(3), r.link1.ResumeUp)
	r.k.At(0, func() {
		for i := 0; i < 6; i++ {
			r.pioPost(t, &mlx.WQE{
				Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: i == 5,
				WQEIdx: uint16(i), QPN: r.qp0.QPN,
				Payload: []byte{byte(20 + i)}, RemoteAddr: dst.Base + uint64(i),
			})
		}
	})
	r.k.Run()

	if r.nic1.RxHeldMax() > budget {
		t.Errorf("rx held high-water %d exceeds budget %d", r.nic1.RxHeldMax(), budget)
	}
	if _, up := r.link1.MaxPend(); up != budget {
		t.Errorf("receiver pend queue reached %d, want the budget %d", up, budget)
	}
	if r.qp1.RNRNaksSent == 0 {
		t.Error("budget overflow never NAKed")
	}
	if r.nic1.RxHeld() != 0 {
		t.Errorf("%d frames still held after drain", r.nic1.RxHeld())
	}
	// Every write eventually landed, exactly once, in order.
	for i := 0; i < 6; i++ {
		if got := r.mem1.Read(dst.Base+uint64(i), 1)[0]; got != byte(20+i) {
			t.Errorf("write %d = %d, want %d", i, got, byte(20+i))
		}
	}
	if r.qp1.RxFrames != 6 {
		t.Errorf("RxFrames = %d, want 6", r.qp1.RxFrames)
	}
}

func TestDoorbellDMAFetch(t *testing.T) {
	r := newRig(t)
	dst := r.mem1.Alloc("dst", 64, 8)
	payload := []byte{4, 4, 4, 4}
	w := &mlx.WQE{
		Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: true,
		WQEIdx: 0, QPN: r.qp0.QPN, Payload: payload, RemoteAddr: dst.Base,
	}
	enc, _ := w.Encode()
	r.mem0.Write(r.qp0.SQ.EntryAddr(0), enc[:])
	r.k.At(0, func() {
		var db [8]byte
		binary.LittleEndian.PutUint16(db[:], 1)
		r.rc0.MMIOWrite(r.qp0.DBAddr, db[:])
	})
	r.k.Run()
	if got := r.mem1.Read(dst.Base, 4); !bytes.Equal(got, payload) {
		t.Errorf("doorbell path payload = %v", got)
	}
}

func TestDoorbellMultipleWQEs(t *testing.T) {
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
	r.k.Run()
	if got := r.mem1.Read(dst.Base, 3); !bytes.Equal(got, []byte{10, 11, 12}) {
		t.Errorf("multi-WQE doorbell: %v", got)
	}
	if r.qp0.CQEsWritten != 3 {
		t.Errorf("CQEs = %d", r.qp0.CQEsWritten)
	}
}

func TestPIOFasterThanDoorbell(t *testing.T) {
	// The paper's core §2 point: PIO+inline eliminates the descriptor
	// DMA read (a PCIe round trip plus a memory read).
	arrival := func(useDoorbell bool) units.Time {
		r := newRig(t)
		dst := r.mem1.Alloc("dst", 64, 8)
		var committed units.Time
		// Observe the remote write commit time via memory contents.
		w := &mlx.WQE{
			Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: false,
			WQEIdx: 0, QPN: r.qp0.QPN, Payload: []byte{1}, RemoteAddr: dst.Base,
		}
		if useDoorbell {
			enc, _ := w.Encode()
			r.mem0.Write(r.qp0.SQ.EntryAddr(0), enc[:])
			r.k.At(0, func() {
				var db [8]byte
				binary.LittleEndian.PutUint16(db[:], 1)
				r.rc0.MMIOWrite(r.qp0.DBAddr, db[:])
			})
		} else {
			r.k.At(0, func() { r.pioPost(t, w) })
		}
		r.k.Run()
		if r.mem1.Read(dst.Base, 1)[0] != 1 {
			t.Fatal("payload missing")
		}
		// Find the commit time from the fabric delivery counters via a
		// rerun is overkill; approximate with final clock (last event is
		// the UpdateFC after the commit chain — identical structure for
		// both paths, so the comparison holds).
		committed = r.k.Now()
		return committed
	}
	pio := arrival(false)
	db := arrival(true)
	if db <= pio {
		t.Errorf("doorbell path (%v) should be slower than PIO (%v)", db, pio)
	}
	// The difference must include at least one PCIe round trip (~2 x
	// 137ns) plus the 150ns memory read.
	if db-pio < units.Nanoseconds(300) {
		t.Errorf("doorbell penalty only %v", db-pio)
	}
}

func TestBadMMIOPanics(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Error("unmapped BAR write did not panic")
		}
	}()
	r.k.At(0, func() {
		r.rc0.MMIOWrite(pcie.BARBase+0x500, []byte{1}) // unknown register offset
	})
	r.k.Run()
}

func TestDMATagExhaustionQueues(t *testing.T) {
	// More than 256 concurrent DMA reads must queue on tag exhaustion
	// (not panic) and all complete in order. Drive 300 QPs, each with one
	// ring-resident WQE, and ring every doorbell in the same event so 300
	// descriptor fetches are requested back to back.
	const qps = 300
	k := sim.NewKernel()
	net := topo.NewFabric(k, fabric.Config{
		WireProp: units.Nanoseconds(270),
	}, topo.Spec{Kind: topo.BackToBack}, 2)
	mem0 := memsim.New(1 << 22)
	link0 := pcie.NewLink(k, rigProp)
	pcie.NewRootComplex(k, mem0, link0, rigRCToMem)
	nic0 := New(k, 0, mem0, link0, net, Config{})
	mem1 := memsim.New(1 << 22)
	link1 := pcie.NewLink(k, rigProp)
	pcie.NewRootComplex(k, mem1, link1, rigRCToMem)
	nic1 := New(k, 1, mem1, link1, net, Config{})
	dst := mem1.Alloc("dst", qps, 8)

	var qs []*QP
	for i := 0; i < qps; i++ {
		q0 := nic0.CreateQP(4, 4)
		q1 := nic1.CreateQP(4, 4)
		Connect(q0, q1)
		w := &mlx.WQE{
			Opcode: mlx.OpRDMAWrite, Inline: true, Signaled: false,
			WQEIdx: 0, QPN: q0.QPN,
			Payload: []byte{byte(i)}, RemoteAddr: dst.Base + uint64(i),
		}
		enc, err := w.Encode()
		if err != nil {
			t.Fatal(err)
		}
		mem0.Write(q0.SQ.EntryAddr(0), enc[:])
		qs = append(qs, q0)
	}
	sawQueued := false
	k.At(0, func() {
		for _, q := range qs {
			q.ringDoorbell(1)
		}
		sawQueued = nic0.dmaPending.Len() > 0 && nic0.inflightReads == 256
	})
	k.SetEventLimit(1_000_000)
	k.Run()
	for i := 0; i < qps; i++ {
		if got := mem1.Read(dst.Base+uint64(i), 1)[0]; got != byte(i) {
			t.Fatalf("payload %d = %d, want %d", i, got, byte(i))
		}
	}
	if !sawQueued {
		t.Error("tag space never saturated: the test did not exercise queueing")
	}
	if nic0.inflightReads != 0 || nic0.dmaPending.Len() != 0 {
		t.Errorf("DMA engine not drained: %d in flight, %d queued",
			nic0.inflightReads, nic0.dmaPending.Len())
	}
}

func TestQPAccounting(t *testing.T) {
	r := newRig(t)
	if r.qp0.QPN == r.qp1.QPN && r.nic0 == r.nic1 {
		t.Error("QPNs collide")
	}
	if r.qp0.DBAddr == r.qp0.BFAddr {
		t.Error("register offsets collide")
	}
	qpB := r.nic0.CreateQP(64, 256)
	if qpB.QPN == r.qp0.QPN {
		t.Error("second QP reuses QPN")
	}
	if qpB.BFAddr == r.qp0.BFAddr {
		t.Error("second QP reuses BAR window")
	}
}

// TestSendPathAllocFree sends inline PIO messages into posted receives
// until the pools are warm. From then on a message allocates nothing on
// the device path: the receive queue reuses its array, and the payload
// pool its buffers, which every send returns once it is acknowledged.
func TestSendPathAllocFree(t *testing.T) {
	r := newRig(t)
	w := mlx.WQE{Opcode: mlx.OpSend, Inline: true, Signaled: true,
		QPN: r.qp0.QPN, AmID: 5, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	post := func() {
		enc, _ := w.Encode()
		r.rc0.MMIOWrite(r.qp0.BFAddr, enc[:])
	}
	send := func() {
		r.qp1.PostRecv(0)
		r.qp1.PostRecv(0)
		r.k.After(0, post)
		r.k.Run()
		w.WQEIdx++
		r.k.After(0, post)
		r.k.Run()
		w.WQEIdx++
	}
	for i := 0; i < 100; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(300, send); allocs != 0 {
		t.Errorf("steady-state sends allocate %.2f times per pair, want 0", allocs)
	}
	if pool := r.nic0.net.Payloads(); pool.InUse() != 0 || pool.HighWater() != 1 {
		t.Errorf("payload pool: %d in use, high-water %d; want 0 and 1", pool.InUse(), pool.HighWater())
	}
}
