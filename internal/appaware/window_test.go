package appaware

import (
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/metrics"
	"github.com/edge-mar/scatter/internal/wire"
)

func TestWindowDelta(t *testing.T) {
	cases := []struct {
		name      string
		cur, last uint64
		want      uint64
	}{
		{"first tick", 120, 0, 120},
		{"steady", 150, 120, 30},
		{"idle window", 150, 150, 0},
		// A source reset (collector restart, worker replacement) makes
		// cur < last; cur is the period's best estimate — never wraparound.
		{"reset", 40, 150, 40},
		{"reset to zero", 0, 150, 0},
	}
	for _, c := range cases {
		if got := WindowDelta(c.cur, c.last); got != c.want {
			t.Errorf("%s: WindowDelta(%d, %d) = %d, want %d", c.name, c.cur, c.last, got, c.want)
		}
	}
}

func TestWindowMachinesIntegralDeltas(t *testing.T) {
	// The satellite bugfix: cumulative utilization hides late overloads.
	// A machine idle for 95 s then saturated for 5 s reports ~5% cumulative
	// utilization — but the windowed view over the last 5 s must read ~100%.
	window := 5 * time.Second
	prev := []metrics.MachineUsage{{
		Machine: "E1", CPUSlots: 4, CPUBusy: 2 * time.Second, CPUUtil: 0.005,
	}}
	cur := []metrics.MachineUsage{{
		Machine: "E1", CPUSlots: 4, CPUBusy: 2*time.Second + 20*time.Second, CPUUtil: 0.055,
	}}
	out := WindowMachines(prev, cur, window)
	if len(out) != 1 {
		t.Fatalf("machines = %d", len(out))
	}
	if got := out[0].CPUUtil; got < 0.99 || got > 1.01 {
		t.Errorf("windowed CPUUtil = %.3f, want ~1.0 (20s busy over 4 slots x 5s)", got)
	}
}

func TestWindowMachinesFirstWindowAndIdle(t *testing.T) {
	window := 10 * time.Second
	cur := []metrics.MachineUsage{{
		Machine: "E2", GPUSlots: 2, GPUBusy: 4 * time.Second, GPUUtil: 0.9,
	}}
	// First window: no prev entry means the full integral is this period's.
	out := WindowMachines(nil, cur, window)
	if got := out[0].GPUUtil; got < 0.19 || got > 0.21 {
		t.Errorf("first-window GPUUtil = %.3f, want 0.2", got)
	}
	// Idle window: integral unchanged, utilization must drop to zero even
	// though the machine was busy earlier (the long-busy-forever-tripped bug).
	out = WindowMachines(cur, cur, window)
	if got := out[0].GPUUtil; got != 0 {
		t.Errorf("idle-window GPUUtil = %.3f, want 0", got)
	}
}

func TestWindowMachinesResetAndGaugePassthrough(t *testing.T) {
	window := 5 * time.Second
	// Device restart: the busy integral went backwards. The new integral is
	// the period's best estimate, same saturating rule as WindowDelta.
	prev := []metrics.MachineUsage{{Machine: "E1", CPUSlots: 2, CPUBusy: 30 * time.Second}}
	cur := []metrics.MachineUsage{{Machine: "E1", CPUSlots: 2, CPUBusy: time.Second}}
	out := WindowMachines(prev, cur, window)
	if got := out[0].CPUUtil; got < 0.09 || got > 0.11 {
		t.Errorf("post-reset CPUUtil = %.3f, want 0.1", got)
	}
	// A hardware-only source reports instantaneous gauges with no busy
	// integrals; those pass through untouched.
	gauge := []metrics.MachineUsage{{Machine: "n1", CPUUtil: 0.7, GPUUtil: 0.4}}
	out = WindowMachines(nil, gauge, window)
	if out[0].CPUUtil != 0.7 || out[0].GPUUtil != 0.4 {
		t.Errorf("gauge passthrough mangled: %+v", out[0])
	}
	// Zero window: nothing to normalize by, snapshots pass through.
	out = WindowMachines(prev, cur, 0)
	if out[0].CPUBusy != time.Second {
		t.Errorf("zero-window output = %+v", out[0])
	}
}

func TestQoSPolicyZeroArrivalDistress(t *testing.T) {
	// The DropRatio bugfix: a window with drops but zero arrivals is full
	// distress (backlog shed while nothing was admitted), and MinSamples
	// must not mask it.
	var sig Signal
	sig.Services[wire.StepSIFT] = ServiceSignal{
		Step: wire.StepSIFT, Arrived: 0, Dropped: 12, DropRatio: 1,
	}
	d := (QoSPolicy{}).Decide(sig)
	if len(d) != 1 || d[0].Step != wire.StepSIFT || d[0].Verb != VerbScaleUp {
		t.Errorf("decisions = %+v, want scale-up sift", d)
	}
}

func TestQoSPolicyLatencyTrigger(t *testing.T) {
	var sig Signal
	sig.Services[wire.StepEncoding] = ServiceSignal{
		Step: wire.StepEncoding, Arrived: 100, P95Micros: 250_000,
	}
	p := QoSPolicy{P95ThresholdMicros: 200_000}
	d := p.Decide(sig)
	if len(d) != 1 || d[0].Step != wire.StepEncoding || d[0].Verb != VerbScaleUp {
		t.Errorf("decisions = %+v, want latency scale-up encoding", d)
	}
	// Without the SLO configured the same signal is healthy.
	if d := (QoSPolicy{}).Decide(sig); d != nil {
		t.Errorf("latency trigger fired with no SLO: %+v", d)
	}
}

func TestQoSPolicyScaleDown(t *testing.T) {
	var sig Signal
	// Two over-provisioned idle services: the deepest stage retires first
	// (upstream capacity shields the stages behind it).
	sig.Services[wire.StepSIFT] = ServiceSignal{Step: wire.StepSIFT, Arrived: 2, Replicas: 3}
	sig.Services[wire.StepLSH] = ServiceSignal{Step: wire.StepLSH, Arrived: 1, Replicas: 2}
	p := QoSPolicy{EnableScaleDown: true}
	d := p.Decide(sig)
	if len(d) != 1 || d[0].Step != wire.StepLSH || d[0].Verb != VerbScaleDown {
		t.Errorf("decisions = %+v, want scale-down lsh", d)
	}
	// Any distress suppresses scale-in entirely.
	sig.Services[wire.StepPrimary] = ServiceSignal{
		Step: wire.StepPrimary, Arrived: 100, Dropped: 50, DropRatio: 0.5,
	}
	d = p.Decide(sig)
	if len(d) != 1 || d[0].Verb != VerbScaleUp {
		t.Errorf("decisions = %+v, want scale-up only", d)
	}
	// Disabled by default.
	sig.Services[wire.StepPrimary] = ServiceSignal{Step: wire.StepPrimary}
	if d := (QoSPolicy{}).Decide(sig); d != nil {
		t.Errorf("scale-down fired while disabled: %+v", d)
	}
}

func TestAdmissionPolicyHysteresis(t *testing.T) {
	p := AdmissionPolicy{} // defaults: degrade 0.1, reject 0.5, recover 0.02
	svc := func(arrived, dropped uint64, ratio float64) ServiceSignal {
		return ServiceSignal{Arrived: arrived, Dropped: dropped, DropRatio: ratio}
	}
	cases := []struct {
		name   string
		cur    core.AdmitState
		svc    ServiceSignal
		capped bool
		want   core.AdmitState
	}{
		{"healthy stays admitted", core.AdmitOK, svc(100, 0, 0), true, core.AdmitOK},
		{"distress escalates one level", core.AdmitOK, svc(100, 20, 0.2), true, core.AdmitDegrade},
		{"severe goes straight to reject", core.AdmitOK, svc(100, 80, 0.8), true, core.AdmitReject},
		{"degrade holds in the dead band", core.AdmitDegrade, svc(100, 5, 0.05), true, core.AdmitDegrade},
		{"degrade does not re-escalate below reject", core.AdmitDegrade, svc(100, 20, 0.2), true, core.AdmitDegrade},
		{"recovery steps down one level", core.AdmitReject, svc(100, 1, 0.01), true, core.AdmitDegrade},
		{"recovery from degrade reaches admit", core.AdmitDegrade, svc(100, 0, 0), true, core.AdmitOK},
		// Below MinSamples a window counts as recovered — an idle service
		// must never stay rejected…
		{"idle window relaxes despite ratio", core.AdmitReject, svc(4, 4, 1), true, core.AdmitDegrade},
		// …unless it's the zero-arrival backlog-shed distress signal.
		{"zero-arrival distress holds", core.AdmitReject, svc(0, 9, 1), true, core.AdmitReject},
		// While scale-out can still act, admission always relaxes.
		{"uncapped relaxes under distress", core.AdmitReject, svc(100, 80, 0.8), false, core.AdmitDegrade},
		{"uncapped admit stays admit", core.AdmitOK, svc(100, 80, 0.8), false, core.AdmitOK},
	}
	for _, c := range cases {
		if got := p.Next(c.cur, c.svc, c.capped); got != c.want {
			t.Errorf("%s: Next(%v, %+v, capped=%v) = %v, want %v",
				c.name, c.cur, c.svc, c.capped, got, c.want)
		}
	}
}

// TestPolicyDivergenceOnLowUtilizationCollapse is the regression suite
// for the paper's insight (I)/(IV) at the decision layer: identical
// signals — heavy application distress, cool hardware — must leave the
// hardware policy inert while the QoS policy scales, then scales back
// in when the distress clears.
func TestPolicyDivergenceOnLowUtilizationCollapse(t *testing.T) {
	var collapse Signal
	collapse.Machines = []metrics.MachineUsage{
		{Machine: "E1", CPUUtil: 0.22, GPUUtil: 0.15},
		{Machine: "E2", CPUUtil: 0.05, GPUUtil: 0.0},
	}
	collapse.Services[wire.StepSIFT] = ServiceSignal{
		Step: wire.StepSIFT, Arrived: 300, Dropped: 180, DropRatio: 0.6, Replicas: 1,
	}
	if d := (HardwarePolicy{}).Decide(collapse); d != nil {
		t.Errorf("hardware policy reacted to a low-utilization collapse: %+v", d)
	}
	qos := QoSPolicy{EnableScaleDown: true}
	d := qos.Decide(collapse)
	if len(d) != 1 || d[0].Step != wire.StepSIFT || d[0].Verb != VerbScaleUp {
		t.Fatalf("qos decisions = %+v, want scale-up sift", d)
	}

	// After relief: no drops, load light relative to the added replicas —
	// the QoS policy hands capacity back, the hardware policy still silent.
	var relieved Signal
	relieved.Machines = collapse.Machines
	relieved.Services[wire.StepSIFT] = ServiceSignal{
		Step: wire.StepSIFT, Arrived: 8, Replicas: 3,
	}
	if d := (HardwarePolicy{}).Decide(relieved); d != nil {
		t.Errorf("hardware policy reacted post-relief: %+v", d)
	}
	d = qos.Decide(relieved)
	if len(d) != 1 || d[0].Step != wire.StepSIFT || d[0].Verb != VerbScaleDown {
		t.Errorf("qos post-relief decisions = %+v, want scale-down sift", d)
	}
}
