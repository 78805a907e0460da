package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"breakband/internal/stats"
)

const (
	// accuracyRounds is how many leading rounds the simulated per-layer
	// values are taken over (paper_campaign varies its seed per round),
	// and how many rounds the traced run runs.
	accuracyRounds = 10
	// cpuProfileHz is the traced run's CPU sampling rate.
	cpuProfileHz = 1000
	// memProfileRate samples one allocation per 64 KiB during traced
	// rounds; it is 0 everywhere else, so the timed run pays nothing.
	memProfileRate = 64 << 10
	// setupsPerRound is how many set-ups each timed round times. The
	// round's own set-up follows a collection and runs on cold caches;
	// the others repeat it back to back, as the campaign does 27 times a
	// round, so the median is the steady cost.
	setupsPerRound = 5
)

// runOpts sizes one workload's runs.
type runOpts struct {
	seed    uint64
	seconds float64 // the timed run repeats rounds until this much wall time passed
	rounds  int     // least rounds of the timed run, and the traced run's rounds
	scale   float64 // share of each round's full simulated work
	traced  bool
	// profileDir receives the traced run's profiles.
	profileDir string
}

// runStats collects one run's rounds.
type runStats struct {
	setupS, roundS  []float64
	nsPerMsg        []float64
	allocPerMsg     []float64
	gcPerRound      []float64
	heapMB          []float64
	offered, failed int
	problems        []string
	// outs holds the outcomes of the first opts.rounds rounds.
	outs []*outcome
}

// digests remembers each seed's determinism digest across every round of a
// workload, timed and traced: a second round with the same seed must agree.
type digests map[uint64]uint64

func (d digests) check(seed uint64, o *outcome) {
	sum := o.digest.Sum64()
	if prev, ok := d[seed]; ok && prev != sum {
		o.problem("seed %d: simulated counts differ from an earlier round (digest %x vs %x)", seed, sum, prev)
	}
	d[seed] = sum
}

// roundTimes is what runRound measured.
type roundTimes struct {
	setup, total time.Duration
	allocs, gcs  uint64
	liveHeap     uint64
	msgs         int // delivered simulated messages; 0 on paper_campaign
	out          *outcome
}

// liveHeap reports the live heap bytes. The second collection empties the
// sync.Pool victim caches the first one leaves behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runRound builds and runs one round, then reads the live heap the round
// holds while its system is still referenced. begin and end bracket the
// timed part.
func runRound(w *workload, p params, begin, end func()) (*roundTimes, error) {
	heap0 := liveHeap()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin()
	t0 := time.Now()
	rd, err := w.setup(p)
	if err != nil {
		end()
		return nil, err
	}
	t1 := time.Now()
	err = rd.run()
	t2 := time.Now()
	end()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	rt := &roundTimes{setup: t1.Sub(t0), total: t2.Sub(t0), allocs: m1.TotalAlloc - m0.TotalAlloc, gcs: uint64(m1.NumGC - m0.NumGC)}
	if h := liveHeap(); h > heap0 {
		rt.liveHeap = h - heap0
	}
	runtime.KeepAlive(rd)

	o := newOutcome()
	rd.report(o)
	if w.messages {
		rt.msgs = o.delivered
		observe(rd.sys, o)
	}
	rd.sys.Shutdown()
	if lost := o.offered - o.delivered - o.failed; lost != 0 {
		o.problem("%d of %d operations neither delivered nor failed", lost, o.offered)
	}
	rt.out = o
	return rt, nil
}

func (rs *runStats) add(rt *roundTimes, keep bool) {
	o := rt.out
	rs.setupS = append(rs.setupS, rt.setup.Seconds())
	rs.roundS = append(rs.roundS, rt.total.Seconds())
	if rt.msgs > 0 {
		rs.nsPerMsg = append(rs.nsPerMsg, float64(rt.total.Nanoseconds())/float64(rt.msgs))
		rs.allocPerMsg = append(rs.allocPerMsg, float64(rt.allocs)/float64(rt.msgs))
	}
	rs.gcPerRound = append(rs.gcPerRound, float64(rt.gcs))
	rs.heapMB = append(rs.heapMB, float64(rt.liveHeap)/1e6)
	rs.account(o)
	if keep {
		rs.outs = append(rs.outs, o)
	}
}

// account adds a round's operations and failed checks to the run's
// fail_frac: each failed check counts as one more failed operation.
func (rs *runStats) account(o *outcome) {
	rs.offered += o.offered
	rs.failed += o.failed + len(o.problems)
	rs.problems = append(rs.problems, o.problems...)
}

// timedRun repeats rounds until opts.seconds of wall time have passed and
// at least opts.rounds rounds ran. A workload that never repeats a seed
// re-runs its first one at the end, untimed, to check determinism.
func timedRun(w *workload, opts runOpts, seen digests) (*runStats, error) {
	rs := &runStats{}
	start := time.Now()
	nop := func() {}
	repeated := false
	for r := 0; r < opts.rounds || time.Since(start).Seconds() < opts.seconds; r++ {
		seed := w.seedFor(opts.seed, r)
		_, repeat := seen[seed]
		repeated = repeated || repeat
		rt, err := runRound(w, params{seed: seed, scale: opts.scale}, nop, nop)
		if err != nil {
			return nil, err
		}
		seen.check(seed, rt.out)
		rs.add(rt, r < opts.rounds)
		for i := 1; i < setupsPerRound; i++ {
			t0 := time.Now()
			rd, err := w.setup(params{seed: seed, scale: opts.scale})
			if err != nil {
				return nil, err
			}
			rs.setupS = append(rs.setupS, time.Since(t0).Seconds())
			rd.sys.Shutdown()
		}
	}
	if !repeated {
		seed := w.seedFor(opts.seed, 0)
		rt, err := runRound(w, params{seed: seed, scale: opts.scale}, nop, nop)
		if err != nil {
			return nil, err
		}
		seen.check(seed, rt.out)
		rs.account(rt.out)
	}
	return rs, nil
}

// tracedRun runs opts.rounds rounds with the simulator's event tracer on,
// each under a CPU profile and the allocation profiler, and folds both
// profiles by layer. Analysis between rounds stays out of both profiles.
func tracedRun(w *workload, opts runOpts, seen digests) (rs *runStats, cpu, alloc map[string]float64, err error) {
	dir := opts.profileDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	before := filepath.Join(dir, w.name+"-allocs-before.pprof")
	after := filepath.Join(dir, w.name+"-allocs-after.pprof")
	if err := writeAllocs(before); err != nil {
		return nil, nil, nil, err
	}
	rs = &runStats{}
	var cpuFiles []string
	for r := 0; r < opts.rounds; r++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-cpu%d.pprof", w.name, r))
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, nil, err
		}
		cpuFiles = append(cpuFiles, path)
		var perr error
		begin := func() {
			// StartCPUProfile asks for 100 Hz and warns that the rate is
			// already set; the rate set first wins.
			runtime.SetCPUProfileRate(cpuProfileHz)
			perr = pprof.StartCPUProfile(f)
			runtime.MemProfileRate = memProfileRate
		}
		end := func() {
			runtime.MemProfileRate = 0
			pprof.StopCPUProfile()
		}
		seed := w.seedFor(opts.seed, r)
		rt, err := runRound(w, params{seed: seed, scale: opts.scale, traced: true}, begin, end)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = perr
		}
		if err != nil {
			return nil, nil, nil, err
		}
		seen.check(seed, rt.out)
		rs.add(rt, true)
	}
	if err := writeAllocs(after); err != nil {
		return nil, nil, nil, err
	}
	if cpu, err = foldProfile("cpu/nanoseconds", true, cpuFiles...); err != nil {
		return nil, nil, nil, err
	}
	if alloc, err = foldProfile("alloc_space/bytes", false, "-base", before, after); err != nil {
		return nil, nil, nil, err
	}
	for _, p := range append(cpuFiles, before, after) {
		os.Remove(p)
	}
	return rs, cpu, alloc, nil
}

// writeAllocs writes the allocation profile as of a fresh collection,
// scaled by the rate the traced rounds sampled at.
func writeAllocs(path string) error {
	runtime.MemProfileRate = memProfileRate
	defer func() { runtime.MemProfileRate = 0 }()
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Quantile(q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
