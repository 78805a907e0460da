package measure

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"breakband/internal/config"
	"breakband/internal/profile"
)

// sharedCampaign runs a reduced-size measurement campaign once per noise
// level and caches the result for the package's precision tests. It uses an
// explicit 4-way pool so even a single-core runner exercises the concurrent
// engine. Entries build concurrently (the tests are parallel), hence the
// per-key once.
type campaignEntry struct {
	once sync.Once
	res  *Result
}

var (
	campaignMu sync.Mutex
	campaigns  = map[config.NoiseLevel]*campaignEntry{}
)

func sharedCampaign(t *testing.T, noise config.NoiseLevel) *Result {
	t.Helper()
	campaignMu.Lock()
	e, ok := campaigns[noise]
	if !ok {
		e = &campaignEntry{}
		campaigns[noise] = e
	}
	campaignMu.Unlock()
	e.once.Do(func() {
		mk := func() *config.Config { return config.TX2CX4(noise, 1, true) }
		e.res = Run(mk, Opts{Samples: 150, Windows: 10, Parallelism: 4})
	})
	return e.res
}

func within(t *testing.T, name string, got, want, tolPct float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if math.Abs(got-want)/math.Abs(want)*100 > tolPct {
		t.Errorf("%s = %.2f, want %.2f (±%.1f%%)", name, got, want, tolPct)
	}
}

func TestComponentsReproduceTable1(t *testing.T) {
	t.Parallel()
	c := sharedCampaign(t, config.NoiseOff).Components
	within(t, "MDSetup", c.MDSetup, config.TabMDSetup, 1)
	within(t, "BarrierMD", c.BarrierMD, config.TabBarrierMD, 1)
	within(t, "BarrierDBC", c.BarrierDBC, config.TabBarrierDBC, 1)
	within(t, "PIOCopy", c.PIOCopy, config.TabPIOCopy, 1)
	within(t, "LLPPost", c.LLPPost, config.TabLLPPost, 1)
	within(t, "LLPPostMisc", c.LLPPostMisc(), config.TabLLPPostMisc, 2)
	within(t, "LLPProg", c.LLPProg, config.TabLLPProg, 1)
	within(t, "BusyPost", c.BusyPost, config.TabBusyPost, 2)
	within(t, "MeasUpdate", c.MeasUpdate, config.TabMeasUpdate, 1)
	within(t, "PCIe", c.PCIe, config.TabPCIe, 0.5)
	within(t, "Wire", c.Wire, config.TabWire, 0.5)
	within(t, "Switch", c.Switch, config.TabSwitch, 1)
	within(t, "RCToMem8", c.RCToMem8, config.TabRCToMem8, 2)
	within(t, "HLPPostMPICH", c.HLPPostMPICH, config.TabMPIIsendMPICH, 3)
	within(t, "HLPPostUCP", c.HLPPostUCP, config.TabMPIIsendUCP, 5)
	within(t, "MPICHRecvCB", c.MPICHRecvCB, config.TabMPICHRecvCB, 2)
	within(t, "UCPRecvCB", c.UCPRecvCB, config.TabUCPRecvCB, 2)
	within(t, "MPICHAfterPr", c.MPICHAfterPr, config.TabMPICHAfterProg, 2)
	within(t, "WaitMPICH", c.WaitMPICH, config.TabMPIWaitMPICH, 5)
	within(t, "WaitUCP", c.WaitUCP, config.TabMPIWaitUCP, 5)
	within(t, "HLPTxProg", c.HLPTxProg, config.TabHLPTxProgPerOp, 6)
	within(t, "LLPTxProg", c.LLPTxProg, config.TabLLPProg/64, 2)
	within(t, "MiscPerOp", c.MiscPerOp, 3.17, 12)
}

func TestValidationsWithinFivePercent(t *testing.T) {
	t.Parallel()
	res := sharedCampaign(t, config.NoiseOff)
	for _, v := range res.Validations() {
		if !v.Within(5) {
			t.Errorf("%s: model error %.2f%% exceeds the paper's 5%% bound", v.Name, v.ErrPct)
		}
	}
}

func TestNoisyValidationsWithinFivePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("noisy campaign in -short mode")
	}
	t.Parallel()
	res := sharedCampaign(t, config.NoiseOn)
	for _, v := range res.Validations() {
		if !v.Within(5) {
			t.Errorf("noisy %s: model error %.2f%%", v.Name, v.ErrPct)
		}
	}
	// The measured table must still be near the calibration targets.
	c := res.Components
	within(t, "noisy LLPPost", c.LLPPost, config.TabLLPPost, 4)
	within(t, "noisy PCIe", c.PCIe, config.TabPCIe, 1)
	within(t, "noisy RCToMem8", c.RCToMem8, config.TabRCToMem8, 4)
}

// TestParallelCampaignMatchesSerial is the engine's core guarantee: every
// task builds its own system with a task-derived noise seed, so the worker
// pool's width and interleaving must not change a single bit of the result.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name  string
		noise config.NoiseLevel
	}{
		{"NoiseOff", config.NoiseOff},
		{"NoiseOn", config.NoiseOn},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mk := func() *config.Config { return config.TX2CX4(tc.noise, 7, true) }
			o := Opts{Samples: 100, Windows: 4}
			serialOpts, parallelOpts := o, o
			serialOpts.Parallelism = 1
			parallelOpts.Parallelism = 4
			serial := Run(mk, serialOpts)
			parallel := Run(mk, parallelOpts)
			if serial.Components != parallel.Components {
				t.Errorf("components diverge:\nserial   %+v\nparallel %+v",
					serial.Components, parallel.Components)
			}
			if serial.Observed != parallel.Observed {
				t.Errorf("observed values diverge:\nserial   %+v\nparallel %+v",
					serial.Observed, parallel.Observed)
			}
			if serial.CalibrationNs != parallel.CalibrationNs ||
				serial.BusyPerOp != parallel.BusyPerOp {
				t.Error("calibration or busy-post rate diverges between serial and parallel")
			}
			if !reflect.DeepEqual(serial.Extra, parallel.Extra) {
				t.Errorf("diagnostics diverge:\nserial   %v\nparallel %v",
					serial.Extra, parallel.Extra)
			}
		})
	}
}

// TestDefaultParallelismMatchesSerial pins the default (GOMAXPROCS) pool
// against forced-serial execution at minimal campaign size.
func TestDefaultParallelismMatchesSerial(t *testing.T) {
	t.Parallel()
	mk := func() *config.Config { return config.TX2CX4(config.NoiseOff, 1, true) }
	o := Opts{Samples: 100, Windows: 2}
	serial, def := o, o
	serial.Parallelism = 1
	a := Run(mk, serial)
	b := Run(mk, def)
	if a.Components != b.Components {
		t.Errorf("default parallelism diverges from serial:\nserial  %+v\ndefault %+v",
			a.Components, b.Components)
	}
}

func TestCalibrationMatchesPaper(t *testing.T) {
	t.Parallel()
	res := sharedCampaign(t, config.NoiseOff)
	within(t, "calibration overhead", res.CalibrationNs.Mean, config.TabMeasUpdate, 0.5)
	if res.CalibrationNs.N != 1000 {
		t.Errorf("calibration samples = %d, want 1000 (paper §3)", res.CalibrationNs.N)
	}
}

func TestObservedValues(t *testing.T) {
	t.Parallel()
	res := sharedCampaign(t, config.NoiseOff)
	o := res.Observed
	if o.LLPInjection.N < 400 {
		t.Errorf("injection deltas n = %d", o.LLPInjection.N)
	}
	within(t, "observed LLP injection", o.LLPInjection.Mean, config.TabLLPInjModel, 5)
	within(t, "observed LLP latency", o.LLPLatencyNs, config.TabLLPLatencyModel, 5)
	within(t, "observed overall injection", o.OverallInjectionNs, 264.97, 5)
	within(t, "observed E2E latency", o.E2ELatencyNs, config.TabE2ELatencyModel, 5)
}

func TestBusyPerOpTracked(t *testing.T) {
	t.Parallel()
	res := sharedCampaign(t, config.NoiseOff)
	// Window 192 vs depth 128: every third post goes busy.
	if math.Abs(res.BusyPerOp-1.0/3) > 0.02 {
		t.Errorf("busy posts per op = %.3f, want ~0.333", res.BusyPerOp)
	}
}

func TestMinimumSampleFloor(t *testing.T) {
	t.Parallel()
	mk := func() *config.Config { return config.TX2CX4(config.NoiseOff, 1, true) }
	// Requesting fewer than 100 samples is raised to the paper's floor.
	r := Run(mk, Opts{Samples: 10, Windows: 2})
	if r.Observed.LLPInjection.N < 100 {
		t.Errorf("sample floor not enforced: n = %d", r.Observed.LLPInjection.N)
	}
}

func TestExtraDiagnosticsPresent(t *testing.T) {
	t.Parallel()
	res := sharedCampaign(t, config.NoiseOff)
	for _, key := range []string{
		"network_one_way", "pong_ping_delta", "mpi_wait_total",
		"wait_loops_per_wait", "post_prog", "waitall_per_op",
	} {
		if _, ok := res.Extra[key]; !ok {
			t.Errorf("diagnostic %q missing", key)
		}
	}
	// The §5 no-busy-wait workload must complete every wait in one pass.
	if res.Extra["wait_loops_per_wait"] != 1 {
		t.Errorf("wait loops per wait = %v, want 1 (successful MPI_Wait)", res.Extra["wait_loops_per_wait"])
	}
}

// TestOneScopePerRun checks the §3 rule on every timed task: with only the
// task's scope selected on node 0, its workload records samples under that
// scope or its outcome partner, and under no other scope.
func TestOneScopePerRun(t *testing.T) {
	t.Parallel()
	s := &state{mk: func() *config.Config { return config.TX2CX4(config.NoiseOff, 1, true) }, o: Opts{Samples: 20}}
	tasks := s.scopedTasks()
	read := map[profile.Scope]bool{} // every scope the campaign reads
	for _, sc := range tasks {
		read[sc.scope], read[sc.scope.Partner()] = true, true
	}
	for _, sc := range tasks {
		sys := s.sys(sc.name)
		pr := sys.Nodes[0].Prof
		pr.Select(sc.scope)
		sc.workload(sys)
		sys.Shutdown()
		own := 0
		for other := range read {
			smp := pr.Sample(other)
			switch {
			case smp == nil:
			case other == sc.scope || other == sc.scope.Partner():
				own += smp.N()
			default:
				t.Errorf("%s selects %v but recorded %d samples under %v", sc.name, sc.scope, smp.N(), other)
			}
		}
		if own == 0 {
			t.Errorf("%s recorded no samples under %v", sc.name, sc.scope)
		}
	}
}
