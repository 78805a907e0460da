package topo

import (
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/sim"
)

// benchmarkForward measures the raw switch path: a closed-loop window of
// frames from host src to host dst, each delivery immediately injecting
// the next frame, so the fabric stays saturated without growing the event
// queue. ns/op is the cost of one full path traversal (every hop's
// queueing, credit and serialization events included).
func benchmarkForward(b *testing.B, spec Spec, hosts, src, dst int) {
	b.ReportAllocs()
	k := sim.NewKernel()
	fab := NewFabric(k, testCfg(), spec, hosts)
	const window = 32
	sent, delivered := 0, 0
	send := func() {
		f := fab.NewFrame()
		f.Kind = fabric.Data
		f.Src = src
		f.Dst = dst
		f.Bytes = 256
		fab.Send(f)
		sent++
	}
	for i := 0; i < hosts; i++ {
		if i == dst {
			fab.Attach(i, rxFunc(func(f *fabric.Frame) {
				delivered++
				f.Release()
				if sent < b.N {
					send()
				}
			}))
			continue
		}
		fab.Attach(i, rxFunc(func(f *fabric.Frame) { f.Release() }))
	}
	b.ResetTimer()
	k.At(0, func() {
		for i := 0; i < window && i < b.N; i++ {
			send()
		}
	})
	k.Run()
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d frames", delivered, b.N)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(k.Fired())/sec, "events/sec")
	}
}

// BenchmarkStarForward crosses the single switch (two port hops).
func BenchmarkStarForward(b *testing.B) {
	benchmarkForward(b, Spec{Kind: SingleSwitch}, 4, 0, 3)
}

// BenchmarkFatTreeCrossLeaf crosses leaf -> spine -> leaf (four port
// hops), the longest path the compiled Clos has.
func BenchmarkFatTreeCrossLeaf(b *testing.B) {
	benchmarkForward(b, Spec{Kind: FatTree}, 8, 0, 7)
}
