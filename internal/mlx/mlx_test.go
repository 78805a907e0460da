package mlx

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"breakband/internal/memsim"
)

func TestWQERoundTrip(t *testing.T) {
	w := &WQE{
		Opcode:     OpSend,
		Signaled:   true,
		Inline:     true,
		WQEIdx:     0xBEEF,
		QPN:        7,
		AmID:       3,
		Payload:    []byte{1, 2, 3, 4, 5, 6, 7, 8},
		RemoteAddr: 0xDEAD0000,
	}
	enc, err := w.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWQE(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Opcode != w.Opcode || got.Signaled != w.Signaled || got.Inline != w.Inline ||
		got.WQEIdx != w.WQEIdx || got.QPN != w.QPN || got.AmID != w.AmID ||
		got.RemoteAddr != w.RemoteAddr || !bytes.Equal(got.Payload, w.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, w)
	}
}

func TestWQEGatherRoundTrip(t *testing.T) {
	w := &WQE{
		Opcode:     OpRDMAWrite,
		Inline:     false,
		WQEIdx:     1,
		QPN:        2,
		GatherAddr: 0x1000,
		GatherLen:  4096,
		RemoteAddr: 0x2000,
	}
	enc, err := w.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWQE(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.GatherAddr != w.GatherAddr || got.GatherLen != w.GatherLen || got.Inline {
		t.Errorf("gather fields lost: %+v", got)
	}
}

func TestWQEInlineTooLong(t *testing.T) {
	w := &WQE{Opcode: OpSend, Inline: true, Payload: make([]byte, InlineMax+1)}
	if _, err := w.Encode(); err == nil {
		t.Error("oversized inline payload encoded without error")
	}
}

func TestDecodeWQEErrors(t *testing.T) {
	if _, err := DecodeWQE(make([]byte, 10)); err == nil {
		t.Error("short buffer decoded")
	}
	var zero [WQESize]byte
	if _, err := DecodeWQE(zero[:]); err == nil {
		t.Error("NOP opcode decoded as valid work")
	}
	bad := zero
	bad[0] = 200
	if _, err := DecodeWQE(bad[:]); err == nil {
		t.Error("garbage opcode decoded")
	}
}

func TestQuickWQERoundTrip(t *testing.T) {
	f := func(op bool, sig bool, idx uint16, qpn uint32, am uint8, payload []byte, raddr uint64) bool {
		if len(payload) > InlineMax {
			payload = payload[:InlineMax]
		}
		w := &WQE{
			Opcode:     OpRDMAWrite,
			Signaled:   sig,
			Inline:     true,
			WQEIdx:     idx,
			QPN:        qpn,
			AmID:       am,
			Payload:    payload,
			RemoteAddr: raddr,
		}
		if op {
			w.Opcode = OpSend
		}
		enc, err := w.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeWQE(enc[:])
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			// nil and empty both decode to empty.
			return len(got.Payload) == 0 && got.WQEIdx == idx && got.QPN == qpn
		}
		return bytes.Equal(got.Payload, payload) && got.Signaled == sig &&
			got.WQEIdx == idx && got.QPN == qpn && got.AmID == am && got.RemoteAddr == raddr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCQERoundTrip(t *testing.T) {
	c := &CQE{
		Op:         CQERecv,
		WQECounter: 900,
		QPN:        5,
		ByteCnt:    8,
		AmID:       2,
		Payload:    []byte{9, 8, 7, 6, 5, 4, 3, 2},
		Gen:        17,
	}
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCQE(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != c.Op || got.WQECounter != c.WQECounter || got.QPN != c.QPN ||
		got.ByteCnt != c.ByteCnt || got.AmID != c.AmID || got.Gen != c.Gen ||
		!bytes.Equal(got.Payload, c.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, c)
	}
}

func TestCQEScatterTooLong(t *testing.T) {
	c := &CQE{Payload: make([]byte, ScatterMax+1)}
	if _, err := c.Encode(); err == nil {
		t.Error("oversized scatter encoded")
	}
}

func TestQuickCQERoundTrip(t *testing.T) {
	f := func(counter uint16, qpn uint32, am, gen uint8, payload []byte) bool {
		if len(payload) > ScatterMax {
			payload = payload[:ScatterMax]
		}
		c := &CQE{
			Op:         CQEReq,
			WQECounter: counter,
			QPN:        qpn,
			ByteCnt:    uint32(len(payload)),
			AmID:       am,
			Payload:    payload,
			Gen:        gen,
		}
		enc, err := c.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeCQE(enc[:])
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			return len(got.Payload) == 0
		}
		return got.WQECounter == counter && bytes.Equal(got.Payload, payload) && got.Gen == gen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingGeometry(t *testing.T) {
	mem := memsim.New(1 << 20)
	r := NewRing(mem, "sq", 128, WQESize)
	if r.Slot(0) != 0 || r.Slot(127) != 127 || r.Slot(128) != 0 || r.Slot(300) != 300%128 {
		t.Error("slot math wrong")
	}
	if r.EntryAddr(1)-r.EntryAddr(0) != WQESize {
		t.Error("entry stride wrong")
	}
	if r.EntryAddr(128) != r.EntryAddr(0) {
		t.Error("ring does not wrap")
	}
}

// TestRingGen: the generation is never zero, and consecutive passes over a
// slot always carry different generations, for every depth NewRing accepts
// and across the uint16 counter's wrap, where a stale CQE from the last
// pass before the wrap must not read as valid in the first pass after it.
func TestRingGen(t *testing.T) {
	mem := memsim.New(1 << 23)
	for depth := 1; depth <= maxRingDepth; depth *= 2 {
		r := NewRing(mem, fmt.Sprintf("cq%d", depth), depth, CQESize)
		for i := 0; i < 1<<16; i++ {
			g := r.Gen(uint16(i))
			if g == 0 {
				t.Fatalf("depth %d: generation 0 at counter %d", depth, i)
			}
			if next := r.Gen(uint16(i + depth)); next == g {
				t.Fatalf("depth %d: counters %d and %d, one pass apart, share generation %d",
					depth, i, uint16(i+depth), g)
			}
		}
	}
}

// TestNewRingValidation: a depth that is not a power of two panics, and so
// does one of 1<<16, where the uint16 counter wraps after one pass and
// every pass would carry the same generation.
func TestNewRingValidation(t *testing.T) {
	mem := memsim.New(1 << 23)
	NewRing(mem, "deepest", maxRingDepth, CQESize)
	for _, c := range []struct {
		depth int
		want  string
	}{
		{100, "power of two"},
		{2 * maxRingDepth, "owner bit"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("depth %d panicked with %v, want %q", c.depth, r, c.want)
				}
			}()
			NewRing(mem, "bad", c.depth, CQESize)
		}()
	}
}

func TestOpcodeStrings(t *testing.T) {
	if OpRDMAWrite.String() != "RDMA_WRITE" || OpSend.String() != "SEND" || OpNop.String() != "NOP" {
		t.Error("opcode strings wrong")
	}
}

func TestDecodeWQEIntoScratchReusesBuffer(t *testing.T) {
	// A scratch WQE decoded twice must not leak state between decodes, and
	// its inline payload must borrow the descriptor's bytes, not copy them.
	w1 := &WQE{Opcode: OpSend, Inline: true, Signaled: true, WQEIdx: 3, QPN: 9,
		AmID: 4, Payload: []byte{1, 2, 3, 4, 5}}
	enc1, err := w1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	w2 := &WQE{Opcode: OpRDMAWrite, Inline: false, WQEIdx: 4, QPN: 9,
		GatherAddr: 0x1000, GatherLen: 64, RemoteAddr: 0x2000}
	enc2, err := w2.Encode()
	if err != nil {
		t.Fatal(err)
	}

	var scratch WQE
	if err := scratch.DecodeFrom(enc1[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(scratch.Payload, []byte{1, 2, 3, 4, 5}) || !scratch.Inline {
		t.Errorf("first decode = %+v", scratch)
	}
	buf1 := &scratch.Payload[0]
	if buf1 != &enc1[offPayload] {
		t.Error("inline payload was copied out of the descriptor")
	}
	if err := scratch.DecodeFrom(enc2[:]); err != nil {
		t.Fatal(err)
	}
	if scratch.Inline || scratch.GatherAddr != 0x1000 || scratch.GatherLen != 64 ||
		scratch.RemoteAddr != 0x2000 || len(scratch.Payload) != 0 {
		t.Errorf("second decode leaked state: %+v", scratch)
	}
	if err := scratch.DecodeFrom(enc1[:]); err != nil {
		t.Fatal(err)
	}
	if scratch.GatherAddr != 0 || scratch.GatherLen != 0 {
		t.Errorf("gather fields leaked into inline decode: %+v", scratch)
	}
	if &scratch.Payload[0] != buf1 {
		t.Error("scratch decode did not alias the descriptor again")
	}
}

func TestDecodeCQEIntoScratchReusesBuffer(t *testing.T) {
	c1 := &CQE{Op: CQERecv, WQECounter: 1, QPN: 2, ByteCnt: 4, AmID: 7,
		Payload: []byte{4, 3, 2, 1}, Gen: 1}
	enc1, err := c1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c2 := &CQE{Op: CQEReq, WQECounter: 9, QPN: 2, Gen: 2}
	enc2, err := c2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var scratch CQE
	if err := scratch.DecodeFrom(enc1[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(scratch.Payload, []byte{4, 3, 2, 1}) || scratch.AmID != 7 {
		t.Errorf("first decode = %+v", scratch)
	}
	buf := &scratch.Payload[0]
	if err := scratch.DecodeFrom(enc2[:]); err != nil {
		t.Fatal(err)
	}
	if scratch.Op != CQEReq || scratch.WQECounter != 9 || len(scratch.Payload) != 0 {
		t.Errorf("second decode leaked state: %+v", scratch)
	}
	if err := scratch.DecodeFrom(enc1[:]); err != nil {
		t.Fatal(err)
	}
	if &scratch.Payload[0] != buf {
		t.Error("scratch decode did not reuse the payload buffer")
	}
}

func TestScratchDecodeIsAllocFree(t *testing.T) {
	w := &WQE{Opcode: OpSend, Inline: true, Payload: []byte{1, 2, 3}}
	encW, _ := w.Encode()
	c := &CQE{Op: CQERecv, ByteCnt: 3, Payload: []byte{1, 2, 3}, Gen: 1}
	encC, _ := c.Encode()
	var sw WQE
	var sc CQE
	// Warm the payload buffers.
	if err := sw.DecodeFrom(encW[:]); err != nil {
		t.Fatal(err)
	}
	if err := sc.DecodeFrom(encC[:]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := sw.DecodeFrom(encW[:]); err != nil {
			t.Fatal(err)
		}
		if err := sc.DecodeFrom(encC[:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("scratch decode allocates %.1f times per op, want 0", allocs)
	}
}
