package appaware

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/metrics"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/wire"
)

// LoopConfig parameterizes the control loop both drivers run.
type LoopConfig struct {
	Policy      Policy // decides scaling from the windowed signal; required
	MaxReplicas int    // replica cap per service (default 3)
	MinReplicas int    // scale-in floor (default 1)
	// AdmissionEnabled escalates to admission control when a scale-up
	// cannot be applied (cap reached or unschedulable).
	AdmissionEnabled bool
	Admission        AdmissionPolicy // escalation thresholds (defaults applied)
}

// Actuator is the loop's hold on a deployment. ScaleUp and ScaleDown name
// the machine that gained or lost the replica; SetAdmit installs a verdict
// the loop has already recorded.
type Actuator interface {
	ScaleUp(step wire.Step) (machine string, err error)
	ScaleDown(step wire.Step) (machine string, err error)
	SetAdmit(step wire.Step, st core.AdmitState, reason string)
}

// Sample is one service's cumulative telemetry at its source. A service
// the snapshot has no report for (Reported false) keeps its window
// anchor, so its next report is not read as a lifetime total in one
// period. P95Micros and Replicas are current values, not windowed.
type Sample struct {
	Reported                           bool
	Arrived, Dropped, AdmissionDropped uint64
	P95Micros                          uint64
	Replicas                           int
}

// Snapshot is what a driver hands each Tick. Machines carry busy
// integrals (sim) or live gauges (nodes); see WindowMachines.
type Snapshot struct {
	Services [wire.NumSteps]Sample
	Machines []metrics.MachineUsage
}

// ScaleEvent records one applied action: a replica added or retired, or
// an admission verdict change (Admission set, Admit the new verdict). At
// is the driver's clock: wall time live; in the sim, virtual time after
// the zero time.Time (SimTime reads it back).
type ScaleEvent struct {
	At        time.Time
	Step      wire.Step
	Verb      Verb
	Machine   string
	Reason    string
	Admission bool
	Admit     core.AdmitState
}

// MarshalJSON renders the event as /api/v1/autoscaler serves it.
func (e ScaleEvent) MarshalJSON() ([]byte, error) {
	v := struct {
		At        time.Time `json:"at"`
		Service   string    `json:"service"`
		Verb      string    `json:"verb"`
		Node      string    `json:"node,omitempty"`
		Reason    string    `json:"reason"`
		Admission bool      `json:"admission,omitempty"`
		Admit     string    `json:"admit,omitempty"`
	}{At: e.At, Service: e.Step.String(), Node: e.Machine, Reason: e.Reason, Admission: e.Admission}
	if e.Admission {
		v.Admit = e.Admit.String()
	} else {
		v.Verb = e.Verb.String()
	}
	return json.Marshal(v)
}

// Loop is the §6 control loop, written once for both clocks. It never
// reads a clock: each Tick takes the driver's now and a cumulative
// Snapshot, windows it, lets the policy decide, scales through the
// Actuator — escalating to admission control when scale-out is capped or
// unschedulable — and relaxes verdicts as windowed distress recovers.
// Not safe for concurrent use.
type Loop struct {
	cfg LoopConfig
	act Actuator

	primed       bool
	anchor       [wire.NumSteps]Sample
	lastMachines []metrics.MachineUsage
	lastTick     time.Time
	signal       Signal

	admit  [wire.NumSteps]core.AdmitState
	reason [wire.NumSteps]string
	stats  obs.AutoscaleDigest // policy and action counters
	events []ScaleEvent
}

// NewLoop applies the config defaults. It panics on a missing policy.
func NewLoop(cfg LoopConfig, act Actuator) *Loop {
	if cfg.Policy == nil {
		panic("appaware: loop without policy")
	}
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = 3
	}
	if cfg.MinReplicas <= 0 {
		cfg.MinReplicas = 1
	}
	cfg.Admission = cfg.Admission.withDefaults()
	return &Loop{cfg: cfg, act: act, stats: obs.AutoscaleDigest{Policy: cfg.Policy.Name()}}
}

// Tick runs one evaluation at now. The first call only primes the
// windows: cumulative totals are not one period's activity. Cap, floor
// and recovery read the replica counts the snapshot reported.
func (l *Loop) Tick(now time.Time, snap Snapshot) {
	sig := l.window(now, snap)
	l.signal = sig
	l.stats.Evaluations++
	if !l.primed {
		l.primed = true
		return
	}
	for _, d := range l.cfg.Policy.Decide(sig) {
		svc := sig.Services[d.Step]
		var machine string
		var err error
		switch {
		case d.Verb == VerbScaleDown && svc.Replicas <= l.cfg.MinReplicas:
			continue
		case d.Verb == VerbScaleDown:
			if machine, err = l.act.ScaleDown(d.Step); err != nil {
				continue
			}
			l.stats.ScaleDowns++
		case svc.Replicas >= l.cfg.MaxReplicas:
			l.escalate(now, svc, "replica cap reached: "+d.Reason)
			continue
		default:
			if machine, err = l.act.ScaleUp(d.Step); err != nil {
				l.escalate(now, svc, fmt.Sprintf("unschedulable (%v): %s", err, d.Reason))
				continue
			}
			l.stats.ScaleUps++
		}
		l.events = append(l.events, ScaleEvent{At: now, Step: d.Step, Verb: d.Verb, Machine: machine, Reason: d.Reason})
	}
	if !l.cfg.AdmissionEnabled {
		return
	}
	// Admission recovery: verdicts relax as the distress ratio falls,
	// whatever the policy decided this period.
	for _, svc := range sig.Services {
		cur := l.admit[svc.Step]
		if cur == core.AdmitOK {
			continue
		}
		if next := l.cfg.Admission.Next(cur, svc, svc.Replicas >= l.cfg.MaxReplicas); next != cur {
			l.setAdmit(now, svc.Step, next, "windowed distress ratio recovered")
		}
	}
}

// window turns the cumulative snapshot into this period's Signal.
func (l *Loop) window(now time.Time, snap Snapshot) Signal {
	var sig Signal
	for step, s := range snap.Services {
		svc := ServiceSignal{Step: wire.Step(step), Replicas: s.Replicas}
		if s.Reported {
			last := l.anchor[step]
			svc.Arrived = WindowDelta(s.Arrived, last.Arrived)
			svc.Dropped = WindowDelta(s.Dropped, last.Dropped)
			svc.AdmissionDropped = WindowDelta(s.AdmissionDropped, last.AdmissionDropped)
			svc.P95Micros = s.P95Micros
			l.anchor[step] = s
		}
		switch {
		case svc.Arrived > 0:
			svc.DropRatio = float64(svc.Dropped) / float64(svc.Arrived)
		case svc.Dropped > 0:
			// Drops with zero arrivals: backlog shed while nothing new was
			// admitted — full distress, not perfect health.
			svc.DropRatio = 1
		}
		sig.Services[step] = svc
	}
	var elapsed time.Duration
	if l.primed {
		elapsed = now.Sub(l.lastTick)
	}
	sig.Machines = WindowMachines(l.lastMachines, snap.Machines, elapsed)
	l.lastMachines, l.lastTick = snap.Machines, now
	return sig
}

// escalate raises a service's verdict when scale-out cannot relieve it.
func (l *Loop) escalate(now time.Time, svc ServiceSignal, reason string) {
	if !l.cfg.AdmissionEnabled {
		return
	}
	if next := l.cfg.Admission.Next(l.admit[svc.Step], svc, true); next != l.admit[svc.Step] {
		l.setAdmit(now, svc.Step, next, reason)
	}
}

func (l *Loop) setAdmit(now time.Time, step wire.Step, next core.AdmitState, reason string) {
	if next > l.admit[step] {
		l.stats.Escalations++
	} else {
		l.stats.Relaxations++
	}
	l.admit[step], l.reason[step] = next, reason
	l.events = append(l.events, ScaleEvent{At: now, Step: step, Reason: reason, Admission: true, Admit: next})
	l.act.SetAdmit(step, next, reason)
}

// Events returns the applied scale and admission actions.
func (l *Loop) Events() []ScaleEvent { return l.events }

// Verdict returns a service's admission verdict and why it last changed.
func (l *Loop) Verdict(step wire.Step) (core.AdmitState, string) {
	return l.admit[step], l.reason[step]
}

// Digest snapshots the loop for /api/v1/autoscaler and the
// scatter_autoscale_* exposition, with the signal it last decided on.
func (l *Loop) Digest() obs.AutoscaleDigest {
	d := l.stats
	for step, svc := range l.signal.Services {
		if svc.Replicas == 0 && l.admit[step] == core.AdmitOK && svc.Arrived == 0 {
			continue // service not deployed / never seen
		}
		d.Services = append(d.Services, obs.AutoscaleServiceDigest{
			Service:    wire.Step(step).String(),
			Replicas:   svc.Replicas,
			DropRatio:  svc.DropRatio,
			P95Micros:  svc.P95Micros,
			Admit:      l.admit[step].String(),
			LastReason: l.reason[step],
		})
	}
	return d
}
