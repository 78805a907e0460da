package perftest

import (
	"fmt"

	"breakband/internal/campaign"
	"breakband/internal/node"
	"breakband/internal/units"
)

// MultiPutBwResult reports the multi-core injection ablation: N cores on the
// initiator node, each with its own worker, endpoint and QP ("each core
// communicates independently of the others", paper §1), sharing one PCIe
// link and NIC.
type MultiPutBwResult struct {
	Cores      int
	Messages   int
	Elapsed    units.Time
	AggMsgRate float64
	// PerMsgNs is the aggregate inter-injection time (lower than the
	// single-core value while the PCIe link and credits keep up).
	PerMsgNs float64
	// LinkBlocked counts posts that stalled on PCIe posted credits —
	// zero for a single core (the paper's §4.2 observation), nonzero
	// once enough cores gang up on the link.
	LinkBlocked uint64
	// Err is the first transport error a post returned, nil on a complete
	// run; the other fields are partial when it is set.
	Err error
}

// MultiPutBw runs the put_bw loop on cores simulated cores concurrently.
func MultiPutBw(sys *node.System, cores int, opt Options) *MultiPutBwResult {
	opt.Defaults(sys.Cfg)
	n0 := sys.Nodes[0]
	srcs := make([]*node.Node, cores)
	for c := range srcs {
		srcs[c] = n0
	}
	snd, _ := connectSenders(sys, srcs, sys.Nodes[1], opt, "multiput")
	for c, s := range snd {
		// Each simulated core draws its jitter from its own stream,
		// derived from the campaign seed and the core identity (nil in
		// NoiseOff). Sharing the node stream would entangle co-node
		// cores' draw sequences with event scheduling order.
		s.rand = sys.Cfg.Rand(fmt.Sprintf("node%d.core%d", n0.ID, c))
		s.w.SetRand(s.rand)
	}
	st := runPutLoops(sys, snd, opt, "multi")

	res := &MultiPutBwResult{Cores: cores, Messages: cores * opt.Iters, Elapsed: st.end - st.start, Err: st.err}
	res.PerMsgNs = res.Elapsed.Ns() / float64(res.Messages)
	res.AggMsgRate = float64(res.Messages) / res.Elapsed.Seconds()
	res.LinkBlocked, _ = n0.Link.Blocked()
	return res
}

// MultiCoreSweep runs MultiPutBw for each core count, one fresh system per
// point, fanned out on a parallelism-wide pool (<= 0 selects GOMAXPROCS);
// mkSys must be safe to call concurrently. (The simulated cores within one
// point still share their system's virtual clock — only distinct points run
// on distinct OS threads.)
func MultiCoreSweep(mkSys func() *node.System, coreCounts []int, opt Options, parallelism int) []*MultiPutBwResult {
	return campaign.Map(parallelism, coreCounts, func(_, cores int) *MultiPutBwResult {
		sys := mkSys()
		defer sys.Shutdown()
		return MultiPutBw(sys, cores, opt)
	})
}

// String renders the result.
func (r *MultiPutBwResult) String() string {
	return fmt.Sprintf("multi put_bw: %d cores, %d msgs in %v -> %.0f msg/s (%.2f ns/msg, %d credit stalls)",
		r.Cores, r.Messages, r.Elapsed, r.AggMsgRate, r.PerMsgNs, r.LinkBlocked)
}
