package fabric

import (
	"testing"

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
	frames := NewFrameArena()
	f := frames.Alloc()
	f.Kind = Data
	f.Dst = 1
	f.SetPayload([]byte{1, 2, 3})
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
	f := NewFrameArena().Alloc()
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

func TestSetPayloadCopies(t *testing.T) {
	f := NewFrameArena().Alloc()
	src := []byte{5, 6}
	f.SetPayload(src)
	src[0] = 99
	if f.Payload()[0] != 5 {
		t.Error("SetPayload aliased the caller's buffer")
	}
}
