package fifo

import "testing"

func TestQueueOrder(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if q.Pop() != 0 || q.Pop() != 1 || q.Len() != 8 {
		t.Fatalf("front pops wrong: len %d", q.Len())
	}
	want := []int{2, 3, 4, 5, 6, 7, 8, 9}
	for i, w := range want {
		if q.At(i) != w {
			t.Fatalf("At(%d) = %d, want %d", i, q.At(i), w)
		}
	}
	for _, w := range want {
		if got := q.Pop(); got != w {
			t.Fatalf("Pop = %d, want %d", got, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len %d after draining", q.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("Pop on an empty queue did not panic")
		}
	}()
	q.Pop()
}

// TestQueueReusesItsArray cycles queues that never drain, at several
// depths and burst sizes: in steady state nothing is allocated, and the
// array stays within four times the deepest the queue got.
func TestQueueReusesItsArray(t *testing.T) {
	for _, tc := range []struct{ depth, burst int }{{1, 1}, {7, 3}, {64, 64}, {191, 64}} {
		var q Queue[*int]
		x := new(int)
		cycle := func() {
			for i := 0; i < tc.burst; i++ {
				q.Push(x)
			}
			for i := 0; i < tc.burst; i++ {
				q.Pop()
			}
		}
		for i := 0; i < tc.depth; i++ {
			q.Push(x)
		}
		for i := 0; i < 10; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("depth %d, burst %d: %.2f allocs per cycle, want 0", tc.depth, tc.burst, allocs)
		}
		if c, most := cap(q.buf), tc.depth+tc.burst; c > 4*most {
			t.Errorf("depth %d, burst %d: capacity %d for at most %d entries", tc.depth, tc.burst, c, most)
		}
	}
}
