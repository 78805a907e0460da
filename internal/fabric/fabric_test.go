package fabric

import (
	"testing"
)

func TestFrameKindString(t *testing.T) {
	if Data.String() != "data" || TransportAck.String() != "ack" {
		t.Error("frame kind strings")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.WireProp <= 0 || cfg.SwitchLatency <= 0 || cfg.SerTime(0) <= 0 {
		t.Error("default config implausible")
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
