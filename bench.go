package breakband

import (
	"breakband/internal/analyzer"
	"breakband/internal/osu"
	"breakband/internal/pcie"
	"breakband/internal/perftest"
	"breakband/internal/stats"
)

// PutBwSummary reports the UCX-perftest-style RDMA-write injection test.
type PutBwSummary struct {
	// MeanInjNs is the mean time between injected messages (inverse
	// message rate).
	MeanInjNs float64
	// MsgRate is messages per second.
	MsgRate float64
	// BusyPosts counts failed posts against the full transmit queue.
	BusyPosts uint64
	// InjDist summarizes the PCIe-analyzer-observed injection deltas
	// (the paper's Figure 7 distribution); InjSample holds the raw
	// per-message deltas for histogramming.
	InjDist   stats.Summary
	InjSample *stats.Sample
}

// RunPutBw runs the put_bw benchmark on a fresh system.
func RunPutBw(opts Options, iters int) PutBwSummary {
	sys := opts.NewSystem()
	defer sys.Shutdown()
	tap := sys.Nodes[0].AttachTap()
	res := perftest.PutBw(sys, perftest.Options{Iters: iters})
	sample := analyzer.Deltas(tap.TLPs(pcie.Down, pcie.MWr, 64, 64))
	return PutBwSummary{
		MeanInjNs: res.MeanInjNs,
		MsgRate:   res.MsgRate,
		BusyPosts: res.Stats.BusyPosts,
		InjDist:   sample.Summarize(),
		InjSample: sample,
	}
}

// AmLatSummary reports the UCX-perftest-style ping-pong latency test.
type AmLatSummary struct {
	// ReportedNs is half the round trip as the benchmark reports it.
	ReportedNs float64
	// AdjustedNs deducts half the measurement update (§4.3).
	AdjustedNs float64
	// RTT summarizes per-iteration round trips.
	RTT stats.Summary
}

// RunAmLat runs the am_lat benchmark on a fresh system.
func RunAmLat(opts Options, iters int) AmLatSummary {
	sys := opts.NewSystem()
	defer sys.Shutdown()
	res := perftest.AmLat(sys, perftest.Options{Iters: iters})
	return AmLatSummary{
		ReportedNs: res.ReportedNs,
		AdjustedNs: res.AdjustedNs,
		RTT:        res.RTTs.Summarize(),
	}
}

// MessageRateSummary reports the OSU-style MPI message-rate test.
type MessageRateSummary struct {
	MeanInjNs float64
	MsgRate   float64
	BusyPosts uint64
	Messages  int
}

// RunMessageRate runs the MPI message-rate benchmark on a fresh system.
func RunMessageRate(opts Options, windows int) MessageRateSummary {
	sys := opts.NewSystem()
	defer sys.Shutdown()
	res := osu.MessageRate(sys, osu.Options{Windows: windows})
	return MessageRateSummary{
		MeanInjNs: res.MeanInjNs,
		MsgRate:   res.MsgRate,
		BusyPosts: res.BusyPosts,
		Messages:  res.Messages,
	}
}

// MPILatencySummary reports the OSU-style MPI ping-pong latency test.
type MPILatencySummary struct {
	// OneWayNs is half the mean round trip.
	OneWayNs float64
	RTT      stats.Summary
}

// RunMPILatency runs the MPI latency benchmark on a fresh system.
func RunMPILatency(opts Options, iters int) MPILatencySummary {
	sys := opts.NewSystem()
	defer sys.Shutdown()
	res := osu.Latency(sys, osu.Options{Iters: iters})
	return MPILatencySummary{OneWayNs: res.ReportedNs, RTT: res.RTTs.Summarize()}
}
