// Package arena provides the pooled, generation-checked object arena the
// device models share: value-typed slots stored in fixed-size chunks (so
// pointers stay stable while the arena grows), a free list for recycling,
// and stale-handle detection via per-slot generations.
//
// A pooled type embeds Slot and is allocated from an Arena bound to it with
// New. The zero Slot marks a directly-constructed (unpooled) object:
// Release on it is a no-op and handles to it resolve to nil, so tests may
// build pooled types with plain literals.
//
// # Slot and generation invariants
//
// Every slot obeys these invariants, and the hot paths rely on them:
//
//   - Stable addresses: slots live in fixed-size chunks (Chunk entries);
//     growing the arena appends chunks and never moves existing slots, so
//     a *T obtained from Alloc stays valid for the object's whole
//     lifetime — pointers may ride in event args and FIFO queues freely.
//   - Single ownership: Alloc marks a slot live; exactly one Release
//     returns it. A second Release panics (double-free is a bug, not a
//     condition to tolerate). Unpooled objects (zero Slot) are exempt.
//   - Generations: Release increments the slot's generation. A Ref
//     captures {arena, slot id, generation} and Get resolves to nil once
//     the object was released — even if the slot has since been recycled
//     for a new object. Holders that outlive their borrow window must
//     hold a Ref, not a *T.
//   - Reset-on-alloc, retain-capacity: Alloc runs the arena's reset
//     function before handing a slot out. Reset truncates reusable
//     buffers ([:0]) instead of nilling them, which is what makes
//     steady-state traffic allocation-free: payload capacity survives
//     recycling.
//   - Accounting: InUse = allocated − released. Pool-owning components
//     surface it (Link.InUsePackets, Fabric.InUseFrames) and
//     tests assert it returns to zero — a leaked borrow is a test
//     failure, not silent pool growth.
//   - Release hooks: SetOnRelease runs just before a slot recycles, with
//     the object's fields still intact. Delivery layers use it to tie
//     resource accounting to the ownership hand-back — internal/topo
//     returns a frame's final-hop link credit from it, which is the
//     mechanism that turns the NIC's deferred frame release into fabric
//     backpressure (see ARCHITECTURE.md).
//
// Grow is the shared reusable-buffer idiom: resize to n bytes reusing
// capacity, contents undefined — for read-into fills like DMA completions.
//
// # Shared payload buffers
//
// BufPool and Buf carry one copy of a message payload through every layer
// that holds it. Fill takes a buffer from the pool and copies the bytes in
// once; each further holder takes its own reference with Hold, and each
// holder calls Drop exactly once. The buffer returns to the pool when the
// last reference drops, keeping its capacity, so a warm pool fills without
// allocating. A Buf is a generation-checked handle over an Arena slot:
// resolving it after the last Drop panics, so a use-after-release fails a
// test instead of reading bytes that belong to a later message. Holders
// read the bytes and never write through them. A pooled type that holds a
// Buf drops it when the object is released (see internal/fabric and
// internal/pcie), never keeps the shared bytes as its own reusable buffer,
// and so retains no payload bytes between uses.
package arena
