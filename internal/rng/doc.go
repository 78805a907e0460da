// Package rng provides the deterministic random-number machinery used by the
// simulator.
//
// Reproducibility is a hard requirement: every experiment in the repository
// must produce identical results for identical seeds, independent of map
// iteration order, goroutine scheduling, or the Go version's global rand
// state. We therefore carry explicit generator state (splitmix64-seeded
// xoshiro256** output) and derive independent named streams from a root
// seed, so adding a new consumer of randomness does not perturb existing
// streams.
//
// # Seed-derivation scheme
//
// All randomness in a run descends from one root seed through named
// streams:
//
//	DeriveSeed(seed, name)   root seed x label -> sub-seed (FNV-1a mix)
//	Stream(seed, name)       generator seeded with DeriveSeed(seed, name)
//
// The naming convention is hierarchical and owned by the consumer:
//
//   - per-node software jitter: Stream(cfg.Seed, "node0"), "node1", ...
//     (config.Config.Rand)
//   - per-core jitter in the multi-core ablation: "node0.core3", so
//     co-node cores' draws are independent of event scheduling order
//     (uct.Worker.SetRand)
//   - per-task campaign seeds: DeriveSeed(campaign seed, task name), so a
//     parallel campaign is bit-identical to a serial one regardless of
//     which worker runs which task (internal/measure, internal/campaign)
//
// The rules that keep runs reproducible: never share one stream between
// concurrently progressing consumers whose interleaving is
// schedule-dependent — derive a stream per consumer instead; never draw
// from a stream in an order that depends on map iteration; and when
// adding a new consumer, give it a new name rather than drawing from an
// existing stream (which would shift every later draw). A nil *Rand is
// the NoiseOff convention: distributions collapse to their means
// (Dist.Sample handles nil).
//
// # Distributions
//
// Component cost models are expressed as Dist values (dist.go): FixedNs
// (NoiseOff), LogNormalNs (mean-preserving software jitter), and Spiked
// (a rare additive preemption spike reproducing the paper's Figure-7
// tail). Sampling with a nil *Rand returns the mean, so a single
// configuration switch turns the whole simulation exact.
//
// A lognormal's log-space parameters (mu, sigma) are fixed when
// NewLogNormal or LogNormalNs builds it; a draw is exp(mu + sigma*Norm()).
// LogNormalDist and the workload size generator share this one path.
//
// How many uniforms each call consumes is part of the determinism contract,
// because it fixes every later draw of the stream. Norm consumes two
// uniforms per Box-Muller pair (redrawing only a zero first uniform), hands
// out one variate and caches the other as the spare that the next Norm call
// returns without drawing. A lognormal draw is exactly one Norm call, and a
// degenerate lognormal (cv or mean of zero or below) draws nothing. A change
// to any of this, or to the arithmetic that turns the draws into a value,
// must keep the reference tests bit-identical or re-record the goldens.
package rng
