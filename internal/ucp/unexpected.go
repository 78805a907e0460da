package ucp

import "slices"

// chunkLen is the number of entries in one chunk of a column.
const chunkLen = 1024

// column is one column of the unexpected queue: a sequence of T kept in
// fixed chunks of chunkLen entries. A growing slice carries up to its own
// length again in append slack; a column carries at most one partly used
// chunk at each end, frees each chunk its front moves past, and gives back
// the chunks its back no longer reaches.
type column[T any] struct {
	chunks []*[chunkLen]T
	head   int // the front entry's index in chunks[0]
	n      int // entries held
}

// at returns entry i, counted from the front.
func (c *column[T]) at(i int) T {
	i += c.head
	return c.chunks[i/chunkLen][i%chunkLen]
}

// span returns the entries from i on, at most n of them, up to the end of
// i's chunk.
func (c *column[T]) span(i, n int) []T {
	i += c.head
	s := c.chunks[i/chunkLen][i%chunkLen:]
	return s[:min(n, len(s))]
}

// push appends vs at the back.
func (c *column[T]) push(vs ...T) {
	for len(vs) > 0 {
		if c.head+c.n == len(c.chunks)*chunkLen {
			c.chunks = append(c.chunks, new([chunkLen]T))
		}
		m := copy(c.span(c.n, len(vs)), vs)
		c.n += m
		vs = vs[m:]
	}
}

// read copies the entries from i on into dst.
func (c *column[T]) read(i int, dst []T) {
	for len(dst) > 0 {
		m := copy(dst, c.span(i, len(dst)))
		i += m
		dst = dst[m:]
	}
}

// remove deletes the k entries from i on, moving the later ones forward.
// Removing from the front moves nothing.
func (c *column[T]) remove(i, k int) {
	if i == 0 {
		c.head += k
	} else {
		for j := i; j < c.n-k; {
			j += copy(c.span(j, c.n-k-j), c.span(j+k, c.n-k-j))
		}
	}
	c.n -= k
	if c.n == 0 {
		c.head = 0
	}
	for c.head >= chunkLen {
		c.chunks = slices.Delete(c.chunks, 0, 1)
		c.head -= chunkLen
	}
	for len(c.chunks) > 1 && (len(c.chunks)-1)*chunkLen >= c.head+c.n {
		c.chunks[len(c.chunks)-1] = nil
		c.chunks = c.chunks[:len(c.chunks)-1]
	}
}

// unexpQueue is the unexpected queue: the eager messages that arrived
// before a matching receive was posted, in arrival order. A message is
// stored as three parts, each packed in its own column: its tag, its
// length, and its bytes in a payload slab. A held message thus costs its
// bytes plus ten, not a heap slice of its own; osu_mr's receiver posts no
// receive and holds every message it is sent.
type unexpQueue struct {
	tags column[uint64]
	lens column[uint16] // eager payloads are at most MaxBcopy bytes
	data column[byte]
}

// Len reports the messages queued.
func (q *unexpQueue) Len() int { return q.tags.n }

// push queues a message at the back.
func (q *unexpQueue) push(tag uint64, data []byte) {
	q.tags.push(tag)
	q.lens.push(uint16(len(data)))
	q.data.push(data...)
}

// take removes the oldest message tagged tag and returns a copy of its
// bytes, which aliases no queue storage; ok is false when no queued message
// has the tag.
func (q *unexpQueue) take(tag uint64) (data []byte, ok bool) {
	off := 0
	for i := 0; i < q.Len(); i++ {
		n := int(q.lens.at(i))
		if q.tags.at(i) != tag {
			off += n
			continue
		}
		if n > 0 {
			data = make([]byte, n)
			q.data.read(off, data)
		}
		q.tags.remove(i, 1)
		q.lens.remove(i, 1)
		q.data.remove(off, n)
		return data, true
	}
	return nil, false
}
