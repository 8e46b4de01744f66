package appaware

import (
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/testbed"
	"github.com/edge-mar/scatter/internal/wire"
)

// TestSimAdmissionEscalatesAtCapAndRecovers drives the sim mirror of the
// live loop end to end: with scale-out capped at the seed replica count,
// sustained distress must escalate to an admission verdict the pipeline
// enforces (refused frames counted as admission drops, not distress),
// and once the client load stops the verdict must relax back to admit.
func TestSimAdmissionEscalatesAtCapAndRecovers(t *testing.T) {
	w := newWorld(11)
	p := core.NewPipeline(w.eng, w.fabric, w.col, core.PlaceAll(w.e1), core.DefaultProfiles(),
		core.Options{Mode: core.ModeScatterPP})
	load := 40 * time.Second
	for i := 0; i < 6; i++ {
		p.AddClient(core.ClientConfig{ID: uint32(i + 1), FPS: 30, Stop: load})
	}
	a := New(w.eng, p, w.col, LoopConfig{
		Policy:           QoSPolicy{},
		MaxReplicas:      1, // scale-out exhausted from the start
		AdmissionEnabled: true,
	}, Config{
		Period: 4 * time.Second,
		Hosts:  []*testbed.Machine{w.e2},
	})
	total := 80 * time.Second
	a.Start(total)
	w.eng.Run(total + 500*time.Millisecond)

	var escalated, relaxed bool
	var worst core.AdmitState
	var step wire.Step
	for _, ev := range a.Events() {
		if ev.Verb == VerbScaleUp && !ev.Admission {
			t.Fatalf("replica added past MaxReplicas=1: %+v", ev)
		}
		if !ev.Admission {
			continue
		}
		if ev.Admit > worst {
			worst, step = ev.Admit, ev.Step
		}
		if ev.Admit > core.AdmitOK {
			escalated = true
		} else if escalated {
			relaxed = true
		}
	}
	if !escalated {
		t.Fatalf("capped distress never escalated to admission control; events: %+v", a.Events())
	}
	if drops := w.col.ServiceAdmissionDrops(step.String()); drops == 0 {
		t.Errorf("%s escalated to %v but the pipeline recorded no admission drops", step, worst)
	}
	// Admission drops stay out of the distress counters.
	arrived, _, dropped := w.col.ServiceCounters(step.String())
	if dropped > arrived {
		t.Errorf("%s distress drops %d exceed arrivals %d — admission drops leaked in",
			step, dropped, arrived)
	}
	if !relaxed {
		t.Error("verdict never stepped back down after the load stopped")
	}
	// The loop's verdict in force is what its actuator last pushed to the
	// pipeline.
	for s := 0; s < wire.NumSteps; s++ {
		if st, _ := a.loop.Verdict(wire.Step(s)); st != core.AdmitOK {
			t.Errorf("%s still %v long after the load stopped", wire.Step(s), st)
		}
	}
}

// TestSimScaleDownRetiresIdleReplica checks the scale-in arm against the
// simulated pipeline: after a burst forces a scale-out, an idle tail must
// let the policy retire the extra replica down to MinReplicas.
func TestSimScaleDownRetiresIdleReplica(t *testing.T) {
	w := newWorld(12)
	p := core.NewPipeline(w.eng, w.fabric, w.col, core.PlaceAll(w.e1), core.DefaultProfiles(),
		core.Options{Mode: core.ModeScatterPP})
	load := 30 * time.Second
	for i := 0; i < 4; i++ {
		p.AddClient(core.ClientConfig{ID: uint32(i + 1), FPS: 30, Stop: load})
	}
	a := New(w.eng, p, w.col, LoopConfig{Policy: QoSPolicy{EnableScaleDown: true}}, Config{
		Period: 5 * time.Second,
		Hosts:  []*testbed.Machine{w.e2},
	})
	total := 70 * time.Second
	a.Start(total)
	w.eng.Run(total + 500*time.Millisecond)

	var ups, downs int
	for _, ev := range a.Events() {
		switch {
		case ev.Admission:
		case ev.Verb == VerbScaleUp:
			ups++
		case ev.Verb == VerbScaleDown:
			downs++
		}
	}
	if ups == 0 {
		t.Fatal("burst never forced a scale-out")
	}
	if downs == 0 {
		t.Fatalf("idle tail never retired a replica; events: %+v", a.Events())
	}
	for s := 0; s < wire.NumSteps; s++ {
		if n := len(p.Instances(wire.Step(s))); n > 1 {
			t.Errorf("%s still at %d replicas after a long idle tail", wire.Step(s), n)
		}
	}
}
