// Package fifo provides Queue, the one first-in first-out queue of the
// simulator: the software stack's posted sends awaiting completion, busy
// posts awaiting a send slot and receive buffers in the order the NIC
// consumes them; the NIC's retransmit queue, its DMA reads waiting for a
// tag and its mirror of the PCIe pend queue; the TLPs blocked on PCIe
// credits; the frames queued at every switch and host egress port; and the
// workload injector's messages awaiting completion.
//
// A queue that pops by reslicing (q = q[1:]) never reuses the space in
// front of its head, so each append past the shrinking capacity copies the
// queue into a new array, forever. Queue pops by advancing a head index
// instead and reuses its backing array: an empty queue rewinds to the
// start, and a full one slides its live entries down when at least half of
// the array is spent, growing only when more than half is live. Capacity
// therefore stays within a small multiple of the deepest the queue gets,
// and a queue in steady state allocates nothing.
package fifo

// Queue is a FIFO queue of T. The zero Queue is empty and ready to use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// At returns the i-th entry from the front; At(0) is the front. It panics
// when i is out of range.
func (q *Queue[T]) At(i int) T { return q.buf[q.head:][i] }

// Pop removes and returns the front entry. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head:][0]
	var zero T
	q.buf[q.head] = zero // drop the reference for the collector
	if q.head++; q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}
