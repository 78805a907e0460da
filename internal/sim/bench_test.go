package sim_test

// The benchmark bodies live in internal/simbench so cmd/bbbench can run the
// exact same code via testing.Benchmark and record BENCH_kernel.json; these
// wrappers put them under `go test -bench . ./internal/sim/...`, which CI
// smokes with -benchtime=1x so they cannot rot.

import (
	"testing"

	"breakband/internal/simbench"
)

func BenchmarkSchedule(b *testing.B)            { simbench.Schedule(b) }
func BenchmarkHandoffFreeStep(b *testing.B)     { simbench.HandoffFreeStep(b) }
func BenchmarkHandoffFreeCall(b *testing.B)     { simbench.HandoffFreeCall(b) }
func BenchmarkPutBwEndToEnd(b *testing.B)       { simbench.PutBwEndToEnd(b) }
func BenchmarkNoisyPutBw(b *testing.B)          { simbench.NoisyPutBw(b) }
func BenchmarkWindowedPutBw(b *testing.B)       { simbench.WindowedPutBw(b) }
func BenchmarkIncastPutBw(b *testing.B)         { simbench.IncastPutBw(b) }
func BenchmarkOversubscribedPutBw(b *testing.B) { simbench.OversubscribedPutBw(b) }
func BenchmarkWorkloadInject(b *testing.B)      { simbench.WorkloadInject(b) }
