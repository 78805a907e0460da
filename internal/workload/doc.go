// Package workload is the open-loop traffic-generation layer: declarative
// workload specs (client cohorts x message-size distributions x open-loop
// arrival processes) that validate up front and compile into per-QP paced
// injectors over any internal/topo topology.
//
// # Model
//
// A Spec names a topology and a set of cohorts. Each cohort is a population
// of clients that share an arrival process (Poisson, Gamma or Weibull
// interarrivals at a per-client mean rate, or periodic ones exactly 1/rate
// apart, optionally modulated by a piecewise-constant rate envelope — ramps
// and diurnal-style schedules), a message-size distribution (fixed,
// uniform, lognormal or a weighted choice mixture) and an active window.
// Clients map round-robin onto the cohort's source and destination node
// sets; all clients of one cohort on one source node multiplex onto that
// node's per-destination QPs, so a million clients cost a million
// lightweight arrival states, not a million queue pairs.
//
// # Determinism
//
// Every random draw is made on a per-client stream derived as
// rng.Stream(seed, "workload/<cohort>/<client>"), and each client consumes
// its stream in a fixed per-message order (size draw, then the next
// interarrival; fixed sizes and periodic arrivals draw nothing). Arrival
// merging inside an injector orders by (time, client), a pure function of
// the draws. Consequently cohorts decouple completely — adding a cohort
// never perturbs another cohort's offered traffic — and serial and parallel
// campaign executions are bit-identical.
//
// # Execution
//
// Injectors are goroutine-free sim.Task continuation frames (zero handoffs
// in steady state): one injector per (cohort, source node) paces its
// clients' merged arrivals with a preallocated binary heap, posts RDMA
// writes through uct.Ep.StartPut (short or bcopy by size, busy posts
// retried), polls once after every post, and records per-cohort delivery
// and latency statistics from send completions. A post refused on a failed
// endpoint counts as failed at its post instant, and the injector goes on
// to its next arrival, so a failed run still offers every message;
// Result.Err names the first cohort with failed messages. The steady-state
// injection path allocates nothing (enforced by internal/simbench). The
// injector is the simulator's one open-loop paced sender:
// perftest.SaturationSweep runs each load step as a periodic cohort.
//
// # Trace record and replay
//
// A run can record every offered message as a (client, at, size, dst)
// tuple into a versioned trace (Trace, EncodeTrace/DecodeTrace). Replaying
// the trace against the same spec reproduces the run bit-identically —
// the replay injector walks the recorded tuples through the same pacing
// frame the generator used — including under injected link faults, whose
// RNG streams are disjoint from the workload's.
package workload
