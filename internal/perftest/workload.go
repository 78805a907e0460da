package perftest

import (
	"fmt"
	"strings"

	"breakband/internal/node"
	"breakband/internal/workload"
)

// FormatWorkload renders a workload run for the CLI: per-cohort delivery,
// goodput and latency percentiles, transport-recovery counters, and — when
// the system was traced — the PR-9 stall-attribution breakdown of where
// message time went.
func FormatWorkload(res *workload.Result, sys *node.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s (seed %d): %d cohort(s), %d message(s) in %v\n",
		res.Name, res.Seed, len(res.Cohorts), totalOffered(res), res.Elapsed)
	for i := range res.Cohorts {
		c := &res.Cohorts[i]
		fmt.Fprintf(&b, "  %-12s offered %6d  delivered %6d  failed %4d  goodput %8.2f MB/s (%.0f msg/s)\n",
			c.Name, c.Offered, c.Delivered, c.Failed, c.Goodput()/1e6, msgRate(c))
		if c.Latency.N() > 0 {
			s := c.Latency.Summarize()
			fmt.Fprintf(&b, "  %-12s latency p50 %.0fns  p95 %.0fns  p99 %.0fns  max %.0fns  mean %.0fns\n",
				"", s.Median, s.P95, s.P99, s.Max, s.Mean)
		}
		if r := c.Recovery; r.Any() {
			fmt.Fprintf(&b, "  %-12s recovery: %d ack timeout(s), %d seq NAK(s), %d RNR NAK(s), %d retransmit(s)\n",
				"", r.AckTimeouts, r.SeqNaksRecv, r.RNRNaksRecv, r.Retransmits)
		}
	}
	if rep := StallReport(sys); rep != nil && len(rep.Msgs) > 0 {
		sh := rep.Shares()
		fmt.Fprintf(&b, "  stall attribution (%d traced msg(s)): ideal %.1f%%  queue %.1f%%  stall %.1f%%  pend %.1f%%  backoff %.1f%%  waste %.1f%%\n",
			len(rep.Msgs), 100*sh[0], 100*sh[1], 100*sh[2], 100*sh[3], 100*sh[4], 100*sh[5])
	}
	return b.String()
}

func totalOffered(res *workload.Result) int {
	n := 0
	for i := range res.Cohorts {
		n += res.Cohorts[i].Offered
	}
	return n
}

func msgRate(c *workload.CohortResult) float64 {
	span := c.LastDone - c.FirstAt
	if span <= 0 {
		return 0
	}
	return float64(c.Delivered) / span.Seconds()
}
