package orchestrator

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/appaware"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/wire"
)

// deployScatter deploys the standard SLA and returns the root.
func deployScatter(t *testing.T, opts ...Option) *Root {
	t.Helper()
	r := newTestRoot(t, opts...)
	if _, err := r.Deploy(scatterSLA()); err != nil {
		t.Fatal(err)
	}
	return r
}

// beat reports one service's cumulative counters from node E1.
func beat(t *testing.T, r *Root, at time.Time, svc string, arrived, dropped uint64) {
	t.Helper()
	err := r.Heartbeat("E1", NodeStatus{
		LastHeartbeat: at,
		Services: []ServiceTelemetry{{
			Service: svc, Arrived: arrived, Dropped: dropped,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewAutoscalerPanics(t *testing.T) {
	r := newTestRoot(t)
	for name, f := range map[string]func(){
		"nil root": func() {
			NewAutoscaler(nil, appaware.LoopConfig{Policy: appaware.QoSPolicy{}}, AutoscalerConfig{App: "a"})
		},
		"no app":     func() { NewAutoscaler(r, appaware.LoopConfig{Policy: appaware.QoSPolicy{}}, AutoscalerConfig{}) },
		"nil policy": func() { NewAutoscaler(r, appaware.LoopConfig{}, AutoscalerConfig{App: "a"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestAutoscalerWindowsCountersAndScalesUp drives the live loop through
// the windowing lifecycle: the first tick only primes (cumulative totals
// are not one period's activity), a distressed window scales out, an
// unchanged-counter window is idle — the regression for the cumulative-
// ratio bug — and a counter reset windows saturating instead of wrapping.
func TestAutoscalerWindowsCountersAndScalesUp(t *testing.T) {
	r := deployScatter(t)
	a := NewAutoscaler(r, appaware.LoopConfig{Policy: appaware.QoSPolicy{}}, AutoscalerConfig{App: "scatter"})
	t0 := time.Unix(100, 0)

	// Priming tick: huge cumulative totals with an awful lifetime ratio
	// must not trigger anything.
	beat(t, r, t0, "sift", 10_000, 5_000)
	a.Tick(t0)
	if ev := a.Events(); len(ev) != 0 {
		t.Fatalf("priming tick acted: %+v", ev)
	}

	// One bad period: +300 arrivals, +150 drops → windowed ratio 0.5.
	t1 := t0.Add(2 * time.Second)
	beat(t, r, t1, "sift", 10_300, 5_150)
	a.Tick(t1)
	ev := a.Events()
	if len(ev) != 1 || ev[0].Step != wire.StepSIFT || ev[0].Verb != appaware.VerbScaleUp {
		t.Fatalf("events = %+v, want one sift scale-up", ev)
	}
	d, err := r.Deployment("scatter")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(instancesOf(d, "sift")); n != 2 {
		t.Fatalf("sift replicas = %d after scale-up", n)
	}

	// Unchanged counters: the lifetime ratio is still 0.5 but the window
	// is empty — the cumulative-signal bug would keep scaling forever.
	t2 := t1.Add(2 * time.Second)
	beat(t, r, t2, "sift", 10_300, 5_150)
	a.Tick(t2)
	if ev := a.Events(); len(ev) != 1 {
		t.Fatalf("idle window acted: %+v", ev)
	}

	// Counter reset (worker replaced): cur < last must window as cur, so
	// 40 drops over 50 arrivals reads as 80% distress, not wraparound.
	t3 := t2.Add(2 * time.Second)
	beat(t, r, t3, "sift", 50, 40)
	a.Tick(t3)
	ev = a.Events()
	if len(ev) != 2 || ev[1].Verb != appaware.VerbScaleUp {
		t.Fatalf("events after reset = %+v, want second scale-up", ev)
	}
	st := a.Status()
	if st.ScaleUps != 2 || st.Evaluations != 4 {
		t.Errorf("digest = %+v, want 2 scale-ups over 4 evaluations", st)
	}
}

// TestAutoscalerAbsentServiceKeepsWindow: a service missing from one
// heartbeat merge keeps its window anchor, so when it returns its
// lifetime totals are not read as one period's burst.
func TestAutoscalerAbsentServiceKeepsWindow(t *testing.T) {
	r := deployScatter(t)
	a := NewAutoscaler(r, appaware.LoopConfig{Policy: appaware.QoSPolicy{}}, AutoscalerConfig{App: "scatter"})
	t0 := time.Unix(100, 0)
	beat(t, r, t0, "sift", 10_000, 5_000) // awful lifetime ratio
	a.Tick(t0)

	// sift drops out of the merge for one period: its node reports lsh only.
	t1 := t0.Add(2 * time.Second)
	beat(t, r, t1, "lsh", 100, 0)
	a.Tick(t1)

	// It returns after a healthy stretch: +300 arrivals, no new drops.
	// Windowed from zero this would read 5 000 drops over 10 300 arrivals.
	t2 := t1.Add(2 * time.Second)
	beat(t, r, t2, "sift", 10_300, 5_000)
	a.Tick(t2)
	if ev := a.Events(); len(ev) != 0 {
		t.Fatalf("returning service read its lifetime total as one window: %+v", ev)
	}

	// The anchor is live: a bad period after the return still scales out.
	t3 := t2.Add(2 * time.Second)
	beat(t, r, t3, "sift", 10_600, 5_150)
	a.Tick(t3)
	if ev := a.Events(); len(ev) != 1 || ev[0].Step != wire.StepSIFT || ev[0].Verb != appaware.VerbScaleUp {
		t.Fatalf("events = %+v, want one sift scale-up", ev)
	}
}

// TestAutoscalerZeroArrivalDistress covers the DropRatio bugfix at the
// live loop: a window with drops but no arrivals is full distress.
func TestAutoscalerZeroArrivalDistress(t *testing.T) {
	r := deployScatter(t)
	a := NewAutoscaler(r, appaware.LoopConfig{Policy: appaware.QoSPolicy{}}, AutoscalerConfig{App: "scatter"})
	t0 := time.Unix(100, 0)
	beat(t, r, t0, "lsh", 500, 10)
	a.Tick(t0)
	// Backlog shed with nothing admitted: arrivals flat, drops climbing.
	t1 := t0.Add(2 * time.Second)
	beat(t, r, t1, "lsh", 500, 60)
	a.Tick(t1)
	ev := a.Events()
	if len(ev) != 1 || ev[0].Step != wire.StepLSH || ev[0].Verb != appaware.VerbScaleUp {
		t.Fatalf("events = %+v, want lsh scale-up on zero-arrival drops", ev)
	}
}

// TestAutoscalerCapEscalatesAndRecovers walks the admission ladder: at
// the replica cap distress escalates admit → degrade → reject onto the
// heartbeat downlink, and windowed recovery relaxes it one level per
// period until the verdict set empties.
func TestAutoscalerCapEscalatesAndRecovers(t *testing.T) {
	r := deployScatter(t)
	var transitions []string
	a := NewAutoscaler(r, appaware.LoopConfig{
		Policy: appaware.QoSPolicy{}, MaxReplicas: 1, AdmissionEnabled: true,
	}, AutoscalerConfig{
		App: "scatter",
		OnAdmission: func(svc string, st core.AdmitState, reason string) {
			transitions = append(transitions, svc+":"+st.String())
		},
	})
	t0 := time.Unix(100, 0)
	beat(t, r, t0, "sift", 1000, 0)
	a.Tick(t0)

	// Moderate distress at the cap: degrade, carried on heartbeats.
	now := t0.Add(2 * time.Second)
	beat(t, r, now, "sift", 1300, 60) // windowed ratio 0.2
	a.Tick(now)
	if st := a.AdmitStateOf(wire.StepSIFT); st != core.AdmitDegrade {
		t.Fatalf("after moderate distress: %v, want degrade", st)
	}
	adm := r.Admissions()
	if len(adm) != 1 || adm[0].Service != "sift" || adm[0].State != "degrade" {
		t.Fatalf("heartbeat downlink = %+v", adm)
	}
	if !strings.Contains(adm[0].Reason, "replica cap") {
		t.Errorf("reason = %q, want replica-cap mention", adm[0].Reason)
	}

	// Severe distress: straight past degrade to reject.
	now = now.Add(2 * time.Second)
	beat(t, r, now, "sift", 1400, 140) // windowed ratio 0.8
	a.Tick(now)
	if st := a.AdmitStateOf(wire.StepSIFT); st != core.AdmitReject {
		t.Fatalf("after severe distress: %v, want reject", st)
	}

	// Recovery: two healthy windows step reject → degrade → admit and
	// clear the downlink.
	for i := 0; i < 2; i++ {
		now = now.Add(2 * time.Second)
		beat(t, r, now, "sift", 1400, 140) // unchanged: idle window
		a.Tick(now)
	}
	if st := a.AdmitStateOf(wire.StepSIFT); st != core.AdmitOK {
		t.Fatalf("after recovery: %v, want admit", st)
	}
	if adm := r.Admissions(); len(adm) != 0 {
		t.Errorf("downlink not cleared: %+v", adm)
	}
	want := []string{"sift:degrade", "sift:reject", "sift:degrade", "sift:admit"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
	st := a.Status()
	if st.Escalations != 2 || st.Relaxations != 2 {
		t.Errorf("digest = %+v, want 2 escalations / 2 relaxations", st)
	}
}

// TestAutoscalerScaleDownFloor: the scale-in arm retires idle extra
// replicas through Root.ScaleDown but never below MinReplicas.
func TestAutoscalerScaleDownFloor(t *testing.T) {
	var removed []Instance
	r := newTestRoot(t, WithHooks(Hooks{
		OnRemove: func(inst Instance) { removed = append(removed, inst) },
	}))
	if _, err := r.Deploy(scatterSLA()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ScaleUp("scatter", "encoding"); err != nil {
		t.Fatal(err)
	}
	a := NewAutoscaler(r, appaware.LoopConfig{Policy: appaware.QoSPolicy{EnableScaleDown: true}},
		AutoscalerConfig{App: "scatter"})
	t0 := time.Unix(100, 0)
	beat(t, r, t0, "encoding", 100, 0)
	a.Tick(t0)
	for i := 1; i <= 3; i++ {
		now := t0.Add(time.Duration(i) * 2 * time.Second)
		beat(t, r, now, "encoding", 100, 0) // idle windows
		a.Tick(now)
	}
	d, err := r.Deployment("scatter")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(instancesOf(d, "encoding")); n != 1 {
		t.Errorf("encoding replicas = %d, want scale-in to the floor of 1", n)
	}
	if len(removed) != 1 || removed[0].Service != "encoding" {
		t.Errorf("OnRemove calls = %+v, want one encoding removal", removed)
	}
	if st := a.Status(); st.ScaleDowns != 1 {
		t.Errorf("digest = %+v, want exactly 1 scale-down", st)
	}
}

// TestAutoscalerHardwarePolicyReadsLiveGauges: the live loop feeds node
// gauges to the policy — low utilization during an app-level collapse
// leaves the hardware policy inert (the paper's blind spot), while a hot
// gauge fires it.
func TestAutoscalerHardwarePolicyReadsLiveGauges(t *testing.T) {
	r := deployScatter(t)
	a := NewAutoscaler(r, appaware.LoopConfig{Policy: appaware.HardwarePolicy{}}, AutoscalerConfig{App: "scatter"})
	t0 := time.Unix(100, 0)
	hb := func(at time.Time, gpu float64, arrived, dropped uint64) {
		t.Helper()
		err := r.Heartbeat("E1", NodeStatus{
			LastHeartbeat: at, GPUUtil: gpu,
			Services: []ServiceTelemetry{{Service: "sift", Arrived: arrived, Dropped: dropped}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	hb(t0, 0.2, 1000, 0)
	a.Tick(t0)
	// Collapse with cool hardware: heavy drops, utilization low.
	t1 := t0.Add(2 * time.Second)
	hb(t1, 0.2, 1300, 200)
	a.Tick(t1)
	if ev := a.Events(); len(ev) != 0 {
		t.Fatalf("hardware policy acted on a cool collapse: %+v", ev)
	}
	// Hot gauge: fires, targeting the busiest service by ingress.
	t2 := t1.Add(2 * time.Second)
	hb(t2, 0.95, 1600, 200)
	a.Tick(t2)
	ev := a.Events()
	if len(ev) != 1 || ev[0].Step != wire.StepSIFT || ev[0].Verb != appaware.VerbScaleUp {
		t.Fatalf("events = %+v, want sift scale-up on hot GPU", ev)
	}
}

func TestRootScaleAPIErrors(t *testing.T) {
	r := deployScatter(t)
	if _, err := r.ScaleUp("ghost", "sift"); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("unknown app err = %v", err)
	}
	if _, err := r.ScaleUp("scatter", "ghost"); !errors.Is(err, ErrUnknownService) {
		t.Errorf("unknown service err = %v", err)
	}
	if _, err := r.ScaleDown("scatter", "sift"); !errors.Is(err, ErrMinReplicas) {
		t.Errorf("floor err = %v", err)
	}
	// Scale-up commits bookkeeping: the new replica gets the next index
	// and survives a round trip through the deployment view.
	inst, err := r.ScaleUp("scatter", "sift")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Replica != 1 || inst.State != StateRunning {
		t.Errorf("scaled instance = %+v", inst)
	}
	down, err := r.ScaleDown("scatter", "sift")
	if err != nil {
		t.Fatal(err)
	}
	if down.Key() != inst.Key() {
		t.Errorf("scale-down removed %s, want the newest replica %s", down.Key(), inst.Key())
	}
}

// AdmitStateOf returns the verdict currently in force for a service.
func (a *Autoscaler) AdmitStateOf(step wire.Step) core.AdmitState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, _ := a.loop.Verdict(step)
	return st
}
