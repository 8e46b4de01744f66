package orchestrator

import (
	"context"
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/appaware"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/metrics"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/wire"
)

// AutoscalerConfig holds the live driver's own settings; the loop's are
// appaware.LoopConfig.
type AutoscalerConfig struct {
	App    string        // the deployed application the loop manages; required
	Period time.Duration // evaluation interval (default 2 s)
	// OnAdmission, when set, fires on every verdict transition — the
	// in-process downlink for deployments where the Deployer runs beside
	// the orchestrator (remote nodes get verdicts on heartbeat responses
	// instead).
	OnAdmission func(service string, state core.AdmitState, reason string)
}

// Autoscaler drives the appaware.Loop on the wall clock, closing the
// paper's §6 feedback path: each period it hands the loop the merged
// heartbeat telemetry, replica counts and node gauges; the loop acts
// through Root.ScaleUp/ScaleDown (which fire the Deployer hooks) and
// pushes admission verdicts to the sidecars via heartbeat responses.
// Safe for concurrent use; Tick is serialized internally.
type Autoscaler struct {
	root *Root
	cfg  AutoscalerConfig

	mu   sync.Mutex
	loop *appaware.Loop
}

// NewAutoscaler wires the live control loop. It panics on a missing root,
// app or policy — configuration errors in deployment construction.
func NewAutoscaler(root *Root, loop appaware.LoopConfig, cfg AutoscalerConfig) *Autoscaler {
	if root == nil {
		panic("orchestrator: autoscaler without root")
	}
	if cfg.App == "" {
		panic("orchestrator: autoscaler without app")
	}
	if cfg.Period <= 0 {
		cfg.Period = 2 * time.Second
	}
	a := &Autoscaler{root: root, cfg: cfg}
	a.loop = appaware.NewLoop(loop, rootActuator{a})
	return a
}

// Run evaluates every Period until the context ends.
func (a *Autoscaler) Run(ctx context.Context) {
	t := time.NewTicker(a.cfg.Period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			a.Tick(now)
		}
	}
}

// Tick runs one control-loop evaluation at now; the first only primes
// the windows.
func (a *Autoscaler) Tick(now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tel := a.root.AppTelemetry()
	dep, err := a.root.Deployment(a.cfg.App)
	if err != nil {
		return // app not deployed (yet)
	}
	var snap appaware.Snapshot
	for _, t := range tel {
		step, err := wire.ParseStep(t.Service)
		if err != nil {
			continue
		}
		snap.Services[step] = appaware.Sample{
			Reported:         true,
			Arrived:          t.Arrived,
			Dropped:          t.Dropped,
			AdmissionDropped: t.AdmissionDrops,
			P95Micros:        t.P95Micros,
		}
	}
	for _, inst := range dep.Instances {
		step, err := wire.ParseStep(inst.Service)
		if err != nil || inst.State != StateRunning {
			continue
		}
		snap.Services[step].Replicas++
	}
	for _, info := range a.root.Nodes() {
		st, err := a.root.Status(info.Name)
		if err != nil {
			continue
		}
		snap.Machines = append(snap.Machines, metrics.MachineUsage{
			Machine:  info.Name,
			CPUUtil:  st.CPUUtil,
			GPUUtil:  st.GPUUtil,
			MemBytes: st.MemUsed,
		})
	}
	a.loop.Tick(now, snap)
}

// rootActuator is the loop's hold on the Root. It runs inside Tick, under
// the Autoscaler's mutex.
type rootActuator struct{ a *Autoscaler }

func (r rootActuator) ScaleUp(step wire.Step) (string, error) {
	inst, err := r.a.root.ScaleUp(r.a.cfg.App, step.String())
	return inst.Node, err
}

func (r rootActuator) ScaleDown(step wire.Step) (string, error) {
	inst, err := r.a.root.ScaleDown(r.a.cfg.App, step.String())
	return inst.Node, err
}

// SetAdmit republishes the full verdict set to the Root so the next
// heartbeat response carries it to every node.
func (r rootActuator) SetAdmit(step wire.Step, st core.AdmitState, reason string) {
	if r.a.cfg.OnAdmission != nil {
		r.a.cfg.OnAdmission(step.String(), st, reason)
	}
	var adm []ServiceAdmission
	for s := range wire.NumSteps {
		if v, why := r.a.loop.Verdict(wire.Step(s)); v != core.AdmitOK {
			adm = append(adm, ServiceAdmission{Service: wire.Step(s).String(), State: v.String(), Reason: why})
		}
	}
	r.a.root.SetAdmissions(adm)
}

// Events returns the applied control actions so far.
func (a *Autoscaler) Events() []appaware.ScaleEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]appaware.ScaleEvent(nil), a.loop.Events()...)
}

// Status snapshots the control loop for /api/v1/autoscaler and the
// scatter_autoscale_* exposition.
func (a *Autoscaler) Status() obs.AutoscaleDigest {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.loop.Digest()
}
