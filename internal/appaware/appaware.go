// Package appaware implements the paper's §6 proposal: an
// application-aware control plane that consumes internal application
// metrics (exported through predefined sidecar hooks) alongside hardware
// telemetry, and scales services when the application — not the
// hardware — shows distress.
//
// Two policies make the paper's insight (I)/(IV) measurable:
//
//   - HardwarePolicy mimics today's orchestrators (Kubernetes-style):
//     it only sees CPU/GPU utilization and scales the busiest service on
//     an overloaded machine. During scAtteR's collapse, utilization stays
//     low or even declines, so this policy never reacts.
//   - QoSPolicy consumes the sidecar analytics (windowed ingress drop
//     ratios and tail latency) and scales the first distressed service in
//     pipeline order, optionally scaling idle over-provisioned services
//     back in.
//
// The control loop (Loop) is written once and never reads a clock; two
// thin drivers tick it. The sim Autoscaler below ticks it on virtual time
// against a simulated deployment (core.Pipeline.AddReplica/
// RemoveReplica), and orchestrator.Autoscaler ticks it on wall time
// against merged heartbeat digests, acting through the scheduler and
// agent.Deployer. When scale-out is capped or unschedulable, the loop
// escalates to admission control (AdmissionPolicy): per-service
// admit/degrade/reject verdicts enforced at the sidecar ingress before
// queues saturate.
//
// Every signal a policy sees is windowed over one control period.
// Service counters are cumulative at the source, so the loop computes
// saturating per-period deltas (robust to collector resets); machine
// utilization is likewise windowed from the devices' busy integrals —
// cumulative utilization would let a long-idle machine never cross a
// threshold during a late overload and keep a long-busy one tripped
// forever after it cooled down.
package appaware

import (
	"fmt"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/metrics"
	"github.com/edge-mar/scatter/internal/sim"
	"github.com/edge-mar/scatter/internal/testbed"
	"github.com/edge-mar/scatter/internal/wire"
)

// ServiceSignal is one service's application-level telemetry over the
// last control period — what the extended sidecar exposes to the
// orchestrator.
type ServiceSignal struct {
	Step      wire.Step
	Arrived   uint64 // ingress requests in the window
	Dropped   uint64 // distress drops in the window (busy/overflow/threshold)
	DropRatio float64
	// AdmissionDropped counts frames this window refused by admission
	// control — excluded from Dropped/DropRatio so the distress signal
	// recovers while rejection holds.
	AdmissionDropped uint64
	// P95Micros is the service-latency tail from the live digest
	// histograms (zero when the driver has no latency source — the sim
	// collector tracks means only).
	P95Micros uint64
	Replicas  int
}

// Signal is the telemetry snapshot a policy decides on. All fields are
// windowed over the last control period.
type Signal struct {
	Services [wire.NumSteps]ServiceSignal
	Machines []metrics.MachineUsage // windowed hardware telemetry (per-period utilization)
}

// Verb says which direction a decision scales.
type Verb int

// Decision verbs. The zero value is scale-up, so pre-existing
// construction sites keep their meaning.
const (
	VerbScaleUp Verb = iota
	VerbScaleDown
)

// String names the verb for events and exposition.
func (v Verb) String() string {
	if v == VerbScaleDown {
		return "scale-down"
	}
	return "scale-up"
}

// Decision asks for one replica more (or fewer) of a step.
type Decision struct {
	Step   wire.Step
	Verb   Verb
	Reason string
}

// Policy maps a telemetry snapshot to scaling decisions. Implementations
// must be deterministic.
type Policy interface {
	Name() string
	Decide(sig Signal) []Decision
}

// HardwarePolicy scales on hardware utilization only — the information
// today's orchestration frameworks act on. When any machine exceeds the
// thresholds over the last control period, it scales the service with
// the highest ingress load.
type HardwarePolicy struct {
	// CPUThreshold and GPUThreshold are utilization fractions in (0, 1].
	// Zero values default to 0.8.
	CPUThreshold float64
	GPUThreshold float64
}

// Name implements Policy.
func (HardwarePolicy) Name() string { return "hardware" }

// Decide implements Policy.
func (p HardwarePolicy) Decide(sig Signal) []Decision {
	cpuT := p.CPUThreshold
	if cpuT <= 0 {
		cpuT = 0.8
	}
	gpuT := p.GPUThreshold
	if gpuT <= 0 {
		gpuT = 0.8
	}
	overloaded := false
	for _, m := range sig.Machines {
		if m.CPUUtil > cpuT || m.GPUUtil > gpuT {
			overloaded = true
			break
		}
	}
	if !overloaded {
		return nil
	}
	// Scale the busiest service by ingress volume.
	best := -1
	var bestArrived uint64
	for i, svc := range sig.Services {
		if svc.Arrived > bestArrived {
			bestArrived = svc.Arrived
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return []Decision{{
		Step:   wire.Step(best),
		Reason: fmt.Sprintf("hardware utilization above threshold; busiest service %s", wire.Step(best)),
	}}
}

// QoSPolicy scales on application QoS: any service whose windowed
// ingress drop ratio — or, when a latency SLO is set, p95 service
// latency — exceeds its threshold gets a replica (earliest pipeline
// stage first, since upstream relief propagates downstream). With
// scale-in enabled it also retires a replica from the most
// over-provisioned healthy service, so capacity follows load in both
// directions.
type QoSPolicy struct {
	// DropThreshold is the windowed drop-ratio trigger (default 0.1).
	DropThreshold float64
	// MinSamples avoids reacting to nearly idle services (default 30).
	MinSamples uint64
	// P95ThresholdMicros triggers scale-out when a service's p95 service
	// latency exceeds it — the latency-aware arm of the policy. Zero
	// disables the latency trigger (drop ratio only).
	P95ThresholdMicros uint64
	// EnableScaleDown lets the policy retire replicas of idle services.
	EnableScaleDown bool
	// IdlePerReplica is the windowed arrivals-per-replica floor under
	// which a multi-replica service with no drops counts as
	// over-provisioned (default 5, used only with EnableScaleDown).
	IdlePerReplica uint64
}

// Name implements Policy.
func (QoSPolicy) Name() string { return "qos" }

// Decide implements Policy.
func (p QoSPolicy) Decide(sig Signal) []Decision {
	threshold := p.DropThreshold
	if threshold <= 0 {
		threshold = 0.1
	}
	minSamples := p.MinSamples
	if minSamples == 0 {
		minSamples = 30
	}
	for _, svc := range sig.Services {
		if svc.Arrived < minSamples && !(svc.Dropped > 0 && svc.Arrived == 0) {
			continue
		}
		if svc.DropRatio > threshold {
			return []Decision{{
				Step: svc.Step,
				Verb: VerbScaleUp,
				Reason: fmt.Sprintf("%s drop ratio %.0f%% over threshold %.0f%%",
					svc.Step, svc.DropRatio*100, threshold*100),
			}}
		}
		if p.P95ThresholdMicros > 0 && svc.P95Micros > p.P95ThresholdMicros {
			return []Decision{{
				Step: svc.Step,
				Verb: VerbScaleUp,
				Reason: fmt.Sprintf("%s p95 %.1fms over threshold %.1fms",
					svc.Step, float64(svc.P95Micros)/1000, float64(p.P95ThresholdMicros)/1000),
			}}
		}
	}
	if !p.EnableScaleDown {
		return nil
	}
	idle := p.IdlePerReplica
	if idle == 0 {
		idle = 5
	}
	// No distress anywhere: retire one replica from the most
	// over-provisioned idle service (deepest stage first, so upstream
	// capacity — which shields the stages behind it — goes last).
	for i := len(sig.Services) - 1; i >= 0; i-- {
		svc := sig.Services[i]
		if svc.Replicas <= 1 || svc.Dropped > 0 || svc.AdmissionDropped > 0 {
			continue
		}
		if svc.Arrived/uint64(svc.Replicas) < idle {
			return []Decision{{
				Step: svc.Step,
				Verb: VerbScaleDown,
				Reason: fmt.Sprintf("%s idle: %d arrivals over %d replicas this window",
					svc.Step, svc.Arrived, svc.Replicas),
			}}
		}
	}
	return nil
}

// AdmissionPolicy maps sustained distress at the replica cap to a
// per-service admission verdict with hysteresis: distress escalates one
// severity level at a time (admit → degrade → reject, straight to
// reject past RejectRatio), recovery steps back down one level per
// period once the windowed distress ratio falls under RecoverRatio.
// Because admission drops are excluded from the distress ratio, a
// rejected service's ratio collapses as its queue drains — which is
// exactly the signal that steps the verdict back down.
type AdmissionPolicy struct {
	// DegradeRatio is the windowed distress drop ratio that engages
	// ingress decimation (default 0.1).
	DegradeRatio float64
	// RejectRatio is the ratio that turns all ingress away (default 0.5).
	RejectRatio float64
	// RecoverRatio is the ratio under which the verdict relaxes one
	// level (default 0.02).
	RecoverRatio float64
	// MinSamples below which a window counts as recovered — an idle
	// service must never stay rejected (default 10).
	MinSamples uint64
}

func (p AdmissionPolicy) withDefaults() AdmissionPolicy {
	if p.DegradeRatio <= 0 {
		p.DegradeRatio = 0.1
	}
	if p.RejectRatio <= 0 {
		p.RejectRatio = 0.5
	}
	if p.RecoverRatio <= 0 {
		p.RecoverRatio = 0.02
	}
	if p.MinSamples == 0 {
		p.MinSamples = 10
	}
	return p
}

// Next returns the verdict for one service given its windowed signal and
// whether scale-out is exhausted (at the replica cap or unschedulable).
// While scale-out can still act, admission always relaxes toward admit —
// adding replicas is strictly preferable to turning users away.
func (p AdmissionPolicy) Next(cur core.AdmitState, svc ServiceSignal, capped bool) core.AdmitState {
	p = p.withDefaults()
	relax := func() core.AdmitState {
		if cur > core.AdmitOK {
			return cur - 1
		}
		return core.AdmitOK
	}
	if !capped {
		return relax()
	}
	ratio := svc.DropRatio
	if svc.Arrived < p.MinSamples && !(svc.Dropped > 0 && svc.Arrived == 0) {
		ratio = 0
	}
	switch {
	case ratio >= p.RejectRatio:
		return core.AdmitReject
	case ratio >= p.DegradeRatio:
		if cur < core.AdmitDegrade {
			return core.AdmitDegrade
		}
		return cur
	case ratio <= p.RecoverRatio:
		return relax()
	default:
		return cur
	}
}

// WindowDelta is the saturating counter delta the control loop windows
// cumulative telemetry with: a source reset (collector restart, worker
// replacement) makes cur < last, in which case cur itself is the best
// estimate of the period's activity — never a uint64 wraparound.
func WindowDelta(cur, last uint64) uint64 {
	if cur < last {
		return cur
	}
	return cur - last
}

// WindowMachines converts cumulative machine usage snapshots into
// per-period utilization: for each machine in cur, utilization is the
// busy-integral delta against prev (matched by name; absent means zero)
// over the elapsed window. Machines whose snapshots carry no busy
// integrals (CPUBusy==0 with CPUUtil>0 — a hardware-only telemetry
// source) keep their reported utilization, which for live gauges is
// already instantaneous.
func WindowMachines(prev, cur []metrics.MachineUsage, window time.Duration) []metrics.MachineUsage {
	if window <= 0 {
		return cur
	}
	last := make(map[string]metrics.MachineUsage, len(prev))
	for _, m := range prev {
		last[m.Machine] = m
	}
	out := make([]metrics.MachineUsage, len(cur))
	for i, m := range cur {
		w := m
		if m.CPUBusy > 0 || m.GPUBusy > 0 || m.CPUUtil == 0 && m.GPUUtil == 0 {
			p := last[m.Machine]
			if m.CPUSlots > 0 {
				d := m.CPUBusy - p.CPUBusy
				if d < 0 {
					d = m.CPUBusy
				}
				w.CPUUtil = float64(d) / float64(time.Duration(m.CPUSlots)*window)
			}
			if m.GPUSlots > 0 {
				d := m.GPUBusy - p.GPUBusy
				if d < 0 {
					d = m.GPUBusy
				}
				w.GPUUtil = float64(d) / float64(time.Duration(m.GPUSlots)*window)
			}
		}
		out[i] = w
	}
	return out
}

// Config holds the sim driver's own settings; the loop's are LoopConfig.
type Config struct {
	Period time.Duration      // control-loop interval (default 5 s)
	Hosts  []*testbed.Machine // receive new replicas, round-robin; required
}

// SimTime returns the virtual time of an event the sim driver recorded:
// it stamps events with virtual time after the zero time.Time, so sim and
// live events share one type.
func SimTime(at time.Time) sim.Time { return at.Sub(time.Time{}) }

// Autoscaler drives a Loop on the simulator's virtual clock.
type Autoscaler struct {
	eng      *sim.Engine
	p        *core.Pipeline
	col      *metrics.Collector
	period   time.Duration
	deadline sim.Time
	loop     *Loop
}

// New wires an autoscaler. It panics on a missing policy or hosts —
// configuration errors in experiment construction.
func New(eng *sim.Engine, p *core.Pipeline, col *metrics.Collector, loop LoopConfig, cfg Config) *Autoscaler {
	if len(cfg.Hosts) == 0 {
		panic("appaware: no scale-out hosts")
	}
	if cfg.Period <= 0 {
		cfg.Period = 5 * time.Second
	}
	return &Autoscaler{
		eng:    eng,
		p:      p,
		col:    col,
		period: cfg.Period,
		loop:   NewLoop(loop, &simActuator{p: p, hosts: cfg.Hosts}),
	}
}

// Start primes the loop with the deployment as it stands, then evaluates
// every Period until the deadline: the first decision windows one full
// period.
func (a *Autoscaler) Start(deadline sim.Time) {
	a.deadline = deadline
	a.tick()
}

// Events returns the applied scale and admission actions.
func (a *Autoscaler) Events() []ScaleEvent { return a.loop.Events() }

func (a *Autoscaler) tick() {
	var snap Snapshot
	for step := range snap.Services {
		name := wire.Step(step).String()
		arrived, _, dropped := a.col.ServiceCounters(name)
		snap.Services[step] = Sample{
			Reported:         true,
			Arrived:          arrived,
			Dropped:          dropped,
			AdmissionDropped: a.col.ServiceAdmissionDrops(name),
			Replicas:         len(a.p.Instances(wire.Step(step))),
		}
	}
	_, snap.Machines = a.p.Usage()
	a.loop.Tick(time.Time{}.Add(a.eng.Now()), snap)
	if a.eng.Now()+a.period <= a.deadline {
		a.eng.After(a.period, a.tick)
	}
}

// simActuator is the loop's hold on the simulated pipeline; ScaleUp tries
// every host round-robin.
type simActuator struct {
	p        *core.Pipeline
	hosts    []*testbed.Machine
	nextHost int
}

func (s *simActuator) ScaleUp(step wire.Step) (string, error) {
	var err error
	for range s.hosts {
		host := s.hosts[s.nextHost%len(s.hosts)]
		s.nextHost++
		if _, err = s.p.AddReplica(step, host); err == nil {
			return host.Name(), nil
		}
	}
	return "", err
}

func (s *simActuator) ScaleDown(step wire.Step) (string, error) {
	reps := s.p.Instances(step)
	if err := s.p.RemoveReplica(step); err != nil {
		return "", err
	}
	return reps[len(reps)-1].Machine().Name(), nil
}

func (s *simActuator) SetAdmit(step wire.Step, st core.AdmitState, _ string) {
	s.p.SetAdmitState(step, st)
}
