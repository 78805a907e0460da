package fabric

import (
	"testing"

	"breakband/internal/arena"
	"breakband/internal/units"
)

func TestFrameKindString(t *testing.T) {
	if Data.String() != "data" || TransportAck.String() != "ack" {
		t.Error("frame kind strings")
	}
}

// TestSerTime pins the EDR wire's serialization: 30 bytes of frame
// overhead at 80 ps/B, so a bare ACK takes 2.4 ns and an 8-byte put 3.04.
func TestSerTime(t *testing.T) {
	if got := SerTime(0); got != units.Nanoseconds(2.4) {
		t.Errorf("SerTime(0) = %v, want 2.40ns", got)
	}
	if got := SerTime(8); got != units.Nanoseconds(3.04) {
		t.Errorf("SerTime(8) = %v, want 3.04ns", got)
	}
}

func TestFramePoolReuse(t *testing.T) {
	frames := NewFrameArena(nil)
	f := frames.Alloc()
	f.Kind = Data
	f.Dst = 1
	payload := arena.NewBufPool().Fill([]byte{1, 2, 3})
	f.AttachPayload(payload)
	payload.Drop()
	ref := f.Ref()
	if ref.Get() != f || string(f.Payload()) != "\x01\x02\x03" {
		t.Fatalf("pooled frame not intact: %+v", f)
	}
	// The owner releases the frame and the pool must recycle the same slot
	// under a new generation.
	f.Release()
	if ref.Get() != nil {
		t.Error("stale FrameRef resolved after release")
	}
	if frames.InUse() != 0 {
		t.Errorf("%d frames in use after release", frames.InUse())
	}
	g := frames.Alloc()
	if g != f {
		t.Error("released slot not reused")
	}
	if g.Ref().Get() != g {
		t.Error("fresh ref does not resolve")
	}
	if len(g.Payload()) != 0 || g.Kind != 0 || g.Dst != 0 {
		t.Error("recycled frame kept its contents")
	}
}

func TestFrameDoubleReleasePanics(t *testing.T) {
	f := NewFrameArena(nil).Alloc()
	f.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	f.Release()
}

func TestUnpooledFrameReleaseIsNoop(t *testing.T) {
	f := &Frame{Kind: Data}
	f.Release() // must not panic
	if f.Ref().Get() != nil {
		t.Error("unpooled frame ref should resolve to nil")
	}
}

// TestAttachPayloadShares pins the frame's side of the payload contract:
// frames share the sender's buffer instead of copying it, each holds its
// own reference, and release drops it before the network's hook runs.
func TestAttachPayloadShares(t *testing.T) {
	pool := arena.NewBufPool()
	var hooked int
	frames := NewFrameArena(func(f *Frame) {
		hooked++
		if f.PayloadBuf() != (arena.Buf{}) {
			t.Error("network hook ran before the payload reference dropped")
		}
	})
	payload := pool.Fill([]byte{5, 6})
	f, g := frames.Alloc(), frames.Alloc()
	f.AttachPayload(payload)
	g.AttachPayload(payload)
	payload.Drop() // the sender lets go; the frames keep the bytes
	if &f.Payload()[0] != &g.Payload()[0] || string(f.Payload()) != "\x05\x06" {
		t.Fatalf("frames do not share the one buffer: %v, %v", f.Payload(), g.Payload())
	}
	f.Release()
	if pool.InUse() != 1 || string(g.Payload()) != "\x05\x06" {
		t.Fatalf("first release freed a buffer another frame holds (in use %d)", pool.InUse())
	}
	g.Release()
	if pool.InUse() != 0 || hooked != 2 {
		t.Errorf("after both releases: %d buffers in use, hook ran %d times", pool.InUse(), hooked)
	}
	if h := frames.Alloc(); h.Payload() != nil || h.PayloadBuf() != (arena.Buf{}) {
		t.Error("a recycled frame slot kept a payload")
	}
}
