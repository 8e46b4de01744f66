package appaware

import (
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/metrics"
	"github.com/edge-mar/scatter/internal/sim"
	"github.com/edge-mar/scatter/internal/testbed"
	"github.com/edge-mar/scatter/internal/wire"
)

type world struct {
	eng    *sim.Engine
	fabric *core.Fabric
	col    *metrics.Collector
	e1, e2 *testbed.Machine
}

func newWorld(seed int64) *world {
	eng := sim.New(seed)
	return &world{
		eng:    eng,
		fabric: core.NewFabric(eng),
		col:    metrics.NewCollector(),
		e1:     testbed.NewMachine(testbed.E1(), eng),
		e2:     testbed.NewMachine(testbed.E2(), eng),
	}
}

// run deploys on E1, ramps to 4 clients, optionally under an autoscaler.
func run(t *testing.T, mode core.Mode, policy Policy) (metrics.Summary, []ScaleEvent) {
	t.Helper()
	w := newWorld(42)
	p := core.NewPipeline(w.eng, w.fabric, w.col, core.PlaceAll(w.e1), core.DefaultProfiles(),
		core.Options{Mode: mode})
	duration := 60 * time.Second
	for i := 0; i < 4; i++ {
		p.AddClient(core.ClientConfig{
			ID: uint32(i + 1), FPS: 30,
			Start: sim.Time(i) * 5 * time.Second,
			Stop:  duration,
		})
	}
	var a *Autoscaler
	if policy != nil {
		a = New(w.eng, p, w.col, LoopConfig{Policy: policy}, Config{
			Period: 5 * time.Second,
			Hosts:  []*testbed.Machine{w.e2},
		})
		a.Start(duration)
	}
	w.eng.Run(duration + 500*time.Millisecond)
	_, machines := p.Usage()
	s := w.col.Summarize(duration, 4, machines)
	var events []ScaleEvent
	if a != nil {
		events = a.Events()
	}
	return s, events
}

func TestHardwarePolicyBlindDuringCollapse(t *testing.T) {
	// scAtteR collapsing under 4 clients keeps hardware utilization low —
	// the hardware policy must never fire (the paper's insight I/IV).
	w := newWorld(7)
	p := core.NewPipeline(w.eng, w.fabric, w.col, core.PlaceAll(w.e1), core.DefaultProfiles(),
		core.Options{Mode: core.ModeScatter})
	for i := 0; i < 4; i++ {
		p.AddClient(core.ClientConfig{ID: uint32(i + 1), FPS: 30, Stop: 30 * time.Second})
	}
	a := New(w.eng, p, w.col, LoopConfig{Policy: HardwarePolicy{}}, Config{
		Period: 5 * time.Second, Hosts: []*testbed.Machine{w.e2},
	})
	a.Start(30 * time.Second)
	w.eng.Run(31 * time.Second)
	if len(a.Events()) != 0 {
		t.Errorf("hardware policy scaled %d times during a low-utilization collapse: %+v",
			len(a.Events()), a.Events())
	}
	// Sanity: the application *was* collapsing.
	s := w.col.Summarize(30*time.Second, 4, nil)
	if s.SuccessRate > 0.3 {
		t.Errorf("expected collapse, success = %.2f", s.SuccessRate)
	}
}

func TestQoSPolicyScalesDistressedService(t *testing.T) {
	w := newWorld(8)
	p := core.NewPipeline(w.eng, w.fabric, w.col, core.PlaceAll(w.e1), core.DefaultProfiles(),
		core.Options{Mode: core.ModeScatterPP})
	for i := 0; i < 4; i++ {
		p.AddClient(core.ClientConfig{ID: uint32(i + 1), FPS: 30, Stop: 40 * time.Second})
	}
	a := New(w.eng, p, w.col, LoopConfig{Policy: QoSPolicy{}}, Config{
		Period: 5 * time.Second, Hosts: []*testbed.Machine{w.e2},
	})
	a.Start(40 * time.Second)
	w.eng.Run(41 * time.Second)
	events := a.Events()
	if len(events) == 0 {
		t.Fatal("QoS policy never scaled a saturated pipeline")
	}
	// The first distressed service under 4 clients is sift.
	if events[0].Step != wire.StepSIFT {
		t.Errorf("first scale-out = %s, want sift", events[0].Step)
	}
	if len(p.Instances(wire.StepSIFT)) < 2 {
		t.Error("sift replica not added")
	}
}

func TestQoSAutoscalingImprovesThroughput(t *testing.T) {
	static, _ := run(t, core.ModeScatterPP, nil)
	scaled, _ := run(t, core.ModeScatterPP, QoSPolicy{})
	if scaled.FPSAggregate <= static.FPSAggregate*1.1 {
		t.Errorf("QoS autoscaling did not help: %.1f vs %.1f aggregate FPS",
			scaled.FPSAggregate, static.FPSAggregate)
	}
}

func TestMaxReplicasCap(t *testing.T) {
	w := newWorld(9)
	p := core.NewPipeline(w.eng, w.fabric, w.col, core.PlaceAll(w.e1), core.DefaultProfiles(),
		core.Options{Mode: core.ModeScatterPP})
	for i := 0; i < 8; i++ {
		p.AddClient(core.ClientConfig{ID: uint32(i + 1), FPS: 30, Stop: 60 * time.Second})
	}
	a := New(w.eng, p, w.col, LoopConfig{Policy: QoSPolicy{}, MaxReplicas: 2}, Config{
		Period: 3 * time.Second,
		Hosts:  []*testbed.Machine{w.e2},
	})
	a.Start(60 * time.Second)
	w.eng.Run(61 * time.Second)
	for step := 0; step < wire.NumSteps; step++ {
		if n := len(p.Instances(wire.Step(step))); n > 2 {
			t.Errorf("%s has %d replicas, cap 2", wire.Step(step), n)
		}
	}
}

func TestNewPanics(t *testing.T) {
	w := newWorld(1)
	p := core.NewPipeline(w.eng, w.fabric, w.col, core.PlaceAll(w.e1), core.DefaultProfiles(), core.Options{})
	for _, f := range []func(){
		func() { New(w.eng, p, w.col, LoopConfig{}, Config{Hosts: []*testbed.Machine{w.e2}}) },
		func() { New(w.eng, p, w.col, LoopConfig{Policy: QoSPolicy{}}, Config{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("New with invalid config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestHardwarePolicyFiresWhenHot(t *testing.T) {
	sig := Signal{
		Machines: []metrics.MachineUsage{{Machine: "E1", GPUUtil: 0.95}},
	}
	sig.Services[wire.StepSIFT] = ServiceSignal{Step: wire.StepSIFT, Arrived: 100}
	d := HardwarePolicy{}.Decide(sig)
	if len(d) != 1 || d[0].Step != wire.StepSIFT {
		t.Errorf("decisions = %+v", d)
	}
}

func TestQoSPolicyMinSamples(t *testing.T) {
	var sig Signal
	sig.Services[wire.StepSIFT] = ServiceSignal{Step: wire.StepSIFT, Arrived: 5, Dropped: 5, DropRatio: 1}
	if d := (QoSPolicy{}).Decide(sig); d != nil {
		t.Errorf("policy reacted to %d samples: %v", 5, d)
	}
}
