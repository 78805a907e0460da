package arena

// bufSlot is one pooled byte buffer: its bytes, the count of holders, and
// the arena bookkeeping that makes its handles generation-checked.
type bufSlot struct {
	b    []byte
	refs int32
	Slot
}

// BufPool is a pool of reference-counted byte buffers: the one copy of a
// payload that every holder in a system shares. Construct with NewBufPool.
type BufPool struct {
	a *Arena[bufSlot]
}

// NewBufPool builds an empty buffer pool.
func NewBufPool() *BufPool {
	return &BufPool{a: New(
		func(s *bufSlot) *Slot { return &s.Slot },
		func(s *bufSlot) {
			s.b = s.b[:0]
			s.refs = 0
		})}
}

// Fill takes a buffer from the pool, copies src into it and returns a
// handle holding the buffer's one reference. A recycled buffer keeps its
// capacity, so a warm pool fills without allocating.
func (p *BufPool) Fill(src []byte) Buf {
	s := p.a.Alloc()
	s.b = append(s.b, src...)
	s.refs = 1
	return Buf{ref: Ref[bufSlot]{a: p.a, id: s.id, gen: s.gen}}
}

// InUse reports the buffers some holder still references: it must return to
// zero once every holder has dropped its reference.
func (p *BufPool) InUse() int { return p.a.InUse() }

// HighWater reports how many buffers the pool has ever held at once: a
// buffer is created only when every existing one is in use.
func (p *BufPool) HighWater() int { return int(p.a.used) }

// Buf is a handle to a pooled, reference-counted byte buffer. Every holder
// owns one reference: Hold takes another for a new holder, and each holder
// calls Drop exactly once; the buffer returns to its pool when the last
// reference drops. Holders read the bytes and never write through them.
//
// The handle records the buffer's generation, so resolving it after the
// last Drop — a use-after-release — panics instead of reading whatever the
// recycled buffer holds now. The zero Buf is the empty payload: it
// resolves to no bytes, and Hold and Drop on it do nothing.
type Buf struct {
	ref Ref[bufSlot]
}

// slot resolves the handle, panicking on a stale one. It reports nil for
// the zero Buf.
func (b Buf) slot() *bufSlot {
	if b.ref.a == nil {
		return nil
	}
	s := b.ref.a.get(b.ref.id)
	if !s.live || s.gen != b.ref.gen {
		panic("arena: payload buffer used after its last reference dropped")
	}
	return s
}

// Bytes returns the buffer's contents: shared with every other holder, so
// read them and never write.
func (b Buf) Bytes() []byte {
	if s := b.slot(); s != nil {
		return s.b
	}
	return nil
}

// Hold takes one more reference for a new holder and returns the handle.
func (b Buf) Hold() Buf {
	if s := b.slot(); s != nil {
		s.refs++
	}
	return b
}

// Drop gives up one reference. The last Drop returns the buffer to its
// pool, after which every handle to it is stale.
func (b Buf) Drop() {
	s := b.slot()
	if s == nil {
		return
	}
	if s.refs--; s.refs == 0 {
		s.Release()
	}
}
