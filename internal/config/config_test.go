package config

import (
	"math"
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/pcie"
	"breakband/internal/rng"
	"breakband/internal/topo"
)

func TestDerivedConstantsMatchPaper(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"HLP_post", TabHLPPost, 26.56},
		{"Post", TabPost, 201.98},
		{"HLP_rx_prog", TabHLPRxProg, 224.66},
		{"LLP injection model", TabLLPInjModel, 295.73},
		{"LLP latency model", TabLLPLatencyModel, 1135.8},
		{"E2E latency model", TabE2ELatencyModel, 1387.02},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 0.005 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestLLPPostSplitPreservesTotal(t *testing.T) {
	cfg := TX2CX4(NoiseOff, 1, true)
	if got := cfg.LLPPostMean(); math.Abs(got-TabLLPPost) > 1e-9 {
		t.Errorf("LLP_post stage sum = %v, want %v", got, TabLLPPost)
	}
	if got := cfg.LLPProgMean(); math.Abs(got-TabLLPProg) > 1e-9 {
		t.Errorf("LLP_prog stage sum = %v, want %v", got, TabLLPProg)
	}
}

func TestDeterministicDistsAreFixed(t *testing.T) {
	cfg := TX2CX4(NoiseOff, 1, true)
	for name, d := range map[string]rng.Dist{
		"MDSetup":  cfg.SW.MDSetup,
		"PIOCopy":  cfg.SW.PIOCopy,
		"BusyPost": cfg.SW.BusyPost,
		"MpiIsend": cfg.SW.MpiIsend,
	} {
		if _, ok := d.(rng.Fixed); !ok {
			t.Errorf("%s is %T in deterministic mode, want Fixed", name, d)
		}
	}
	if cfg.Rand("x") != nil {
		t.Error("deterministic config returned a generator")
	}
}

func TestNoisyDistsPreserveMeans(t *testing.T) {
	det := TX2CX4(NoiseOff, 1, true)
	noisy := TX2CX4(NoiseOn, 1, true)
	pairs := []struct {
		name string
		a, b rng.Dist
	}{
		{"MDSetup", det.SW.MDSetup, noisy.SW.MDSetup},
		{"PIOCopy", det.SW.PIOCopy, noisy.SW.PIOCopy},
		{"UcpRecvCB", det.SW.UcpRecvCB, noisy.SW.UcpRecvCB},
		{"MpichRecvCB", det.SW.MpichRecvCB, noisy.SW.MpichRecvCB},
	}
	for _, p := range pairs {
		if p.a.Mean() != p.b.Mean() {
			t.Errorf("%s mean differs between modes: %v vs %v", p.name, p.a.Mean(), p.b.Mean())
		}
	}
	if noisy.Rand("x") == nil {
		t.Error("noisy config returned no generator")
	}
	if noisy.Rand("x") == noisy.Rand("y") {
		t.Error("streams not distinct")
	}
}

func TestPCIeCalibrationSolvesMethodology(t *testing.T) {
	cfg := TX2CX4(NoiseOff, 1, true)
	// The ACK-round-trip methodology: RT = 2*Prop + serialize(DLLP) +
	// AckDelay, and half of it must equal Table 1's PCIe value.
	ser := pcie.SerTime(pcie.DLLPBytes).Ns()
	rtHalf := (2*cfg.PCIeProp.Ns() + ser + pcie.AckDelay.Ns()) / 2
	if math.Abs(rtHalf-TabPCIe) > 0.01 {
		t.Errorf("methodology would measure PCIe = %v, want %v", rtHalf, TabPCIe)
	}
}

func TestWireCalibrationSolvesMethodology(t *testing.T) {
	cfg := TX2CX4(NoiseOff, 1, false)
	dataSer := fabric.SerTime(8).Ns()
	ackSer := fabric.SerTime(0).Ns()
	cqeSer := pcie.SerTime(64 + pcie.TLPHeader).Ns()
	measured := (2*cfg.Fabric.WireProp.Ns() + dataSer + ackSer + cqeSer) / 2
	if math.Abs(measured-TabWire) > 0.01 {
		t.Errorf("methodology would measure Wire = %v, want %v", measured, TabWire)
	}
}

func TestSwitchFlagged(t *testing.T) {
	with := TX2CX4(NoiseOff, 1, true)
	without := TX2CX4(NoiseOff, 1, false)
	if with.Topology.Kind != topo.Auto || without.Topology.Kind != topo.BackToBack {
		t.Errorf("useSwitch flag not applied: topology %v with, %v without", with.Topology.Kind, without.Topology.Kind)
	}
	if with.Fabric.SwitchLatency.Ns() != TabSwitch {
		t.Errorf("switch latency = %v", with.Fabric.SwitchLatency.Ns())
	}
}

func TestProfCalibrationTargets(t *testing.T) {
	cfg := TX2CX4(NoiseOff, 1, true)
	total := cfg.Prof.Isb.Mean().Ns() + cfg.Prof.Read.Mean().Ns()
	if math.Abs(total-TabMeasUpdate) > 1e-9 {
		t.Errorf("profiling overhead = %v, want %v", total, TabMeasUpdate)
	}
}

func TestSignalPeriod(t *testing.T) {
	if c := TX2CX4(NoiseOff, 1, true).SignalPeriod; c != 64 {
		t.Errorf("unsignaled period %d, want UCX's c=64", c)
	}
}
