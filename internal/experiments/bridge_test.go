package experiments

import (
	"fmt"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/testbed"
	"github.com/edge-mar/scatter/internal/wire"
)

// TestOrchestratorDrivesSimulation closes the loop: the SLA is scheduled
// by the real orchestrator (GPU/memory constraints and pins), the
// resulting deployment is converted to a simulator placement, and the
// pipeline runs on it.
func TestOrchestratorDrivesSimulation(t *testing.T) {
	w := NewWorld(77)
	root := orchestrator.NewRoot()
	if err := w.RegisterTestbed(root); err != nil {
		t.Fatal(err)
	}
	// Pin the C12 configuration through the SLA.
	pins := [wire.NumSteps][]string{
		{"E1"}, {"E1"}, {"E2"}, {"E2"}, {"E2"},
	}
	sla := ScatterSLA([wire.NumSteps]int{}, pins)
	d, err := root.Deploy(sla)
	if err != nil {
		t.Fatal(err)
	}
	placement, err := w.PlacementFromDeployment(d)
	if err != nil {
		t.Fatal(err)
	}
	// The schedule must respect the pins.
	if placement[wire.StepPrimary][0] != w.E1 || placement[wire.StepMatching][0] != w.E2 {
		t.Fatal("pins not honoured through the orchestrator")
	}
	p := core.NewPipeline(w.Eng, w.Fabric, w.Col, placement, core.DefaultProfiles(),
		core.Options{Mode: core.ModeScatterPP})
	p.AddClient(core.ClientConfig{ID: 1, FPS: 30, Stop: 10 * time.Second})
	w.Eng.Run(10*time.Second + 500*time.Millisecond)
	s := w.Col.Summarize(10*time.Second, 1, nil)
	if s.FPSPerClient < 25 {
		t.Errorf("orchestrator-driven deployment FPS = %.1f", s.FPSPerClient)
	}
}

func TestScatterSLAConstraints(t *testing.T) {
	sla := ScatterSLA([wire.NumSteps]int{0, 2, 0, 0, 2}, [wire.NumSteps][]string{})
	if err := sla.Validate(); err != nil {
		t.Fatal(err)
	}
	if sla.Microservices[1].Replicas != 2 || sla.Microservices[4].Replicas != 2 {
		t.Error("replica counts lost")
	}
	if sla.Microservices[0].Requirements.NeedsGPU {
		t.Error("primary marked GPU-dependent")
	}
	for i := 1; i < wire.NumSteps; i++ {
		if !sla.Microservices[i].Requirements.NeedsGPU {
			t.Errorf("%s not GPU-dependent", sla.Microservices[i].Name)
		}
	}
}

func TestPlacementFromDeploymentErrors(t *testing.T) {
	w := NewWorld(1)
	// Missing services.
	if _, err := w.PlacementFromDeployment(&orchestrator.Deployment{App: "x"}); err == nil {
		t.Error("empty deployment accepted")
	}
	// Unknown node.
	d := &orchestrator.Deployment{App: "x"}
	for step := 0; step < wire.NumSteps; step++ {
		d.Instances = append(d.Instances, orchestrator.Instance{
			App: "x", Service: wire.Step(step).String(), Node: "mystery",
		})
	}
	if _, err := w.PlacementFromDeployment(d); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestMachineByName(t *testing.T) {
	w := NewWorld(1)
	if m, ok := w.MachineByName("E1"); !ok || m != w.E1 {
		t.Error("E1 lookup")
	}
	if _, ok := w.MachineByName("nope"); ok {
		t.Error("unknown machine found")
	}
}

// The functions below are the fixtures that let a root orchestrator
// schedule the simulated testbed: register its machines, build the
// scAtteR SLA, and turn the resulting deployment into a sim placement.

// timeZero is the registration timestamp used for simulated testbeds;
// the simulator does not exercise wall-clock heartbeat expiry.
var timeZero = time.Unix(0, 0)

// MachineByName resolves a testbed machine from its node name.
func (w *World) MachineByName(name string) (*testbed.Machine, bool) {
	switch name {
	case w.E1.Name():
		return w.E1, true
	case w.E2.Name():
		return w.E2, true
	case w.Cloud.Name():
		return w.Cloud, true
	default:
		return nil, false
	}
}

// RegisterTestbed registers the world's machines with a root
// orchestrator, using the machines' own capability profiles.
func (w *World) RegisterTestbed(root *orchestrator.Root) error {
	for _, m := range []*testbed.Machine{w.E1, w.E2, w.Cloud} {
		cfg := m.Config()
		info := orchestrator.NodeInfo{
			Name:     cfg.Name,
			Cluster:  cfg.Cluster,
			CPUCores: cfg.CPUCores,
			GPUs:     cfg.GPUs,
			GPUArch:  string(cfg.GPUArch),
			MemBytes: cfg.MemBytes,
		}
		if err := root.RegisterNode(info, timeZero); err != nil {
			return err
		}
	}
	return nil
}

// PlacementFromDeployment converts an orchestrator scheduling outcome
// into a simulator placement. The SLA's microservice names must be the
// five pipeline step names, and every scheduled node must be one of the
// world's machines.
func (w *World) PlacementFromDeployment(d *orchestrator.Deployment) (core.Placement, error) {
	var p core.Placement
	for step := 0; step < wire.NumSteps; step++ {
		name := wire.Step(step).String()
		var insts []orchestrator.Instance
		for _, in := range d.Instances {
			if in.Service == name {
				insts = append(insts, in)
			}
		}
		if len(insts) == 0 {
			return p, fmt.Errorf("experiments: deployment %s has no %s instances", d.App, name)
		}
		for _, inst := range insts {
			m, ok := w.MachineByName(inst.Node)
			if !ok {
				return p, fmt.Errorf("experiments: deployment schedules %s on unknown node %s",
					inst.Key(), inst.Node)
			}
			p[step] = append(p[step], m)
		}
	}
	return p, nil
}

// ScatterSLA builds the scAtteR application SLA with the calibrated
// memory demands and GPU constraints, optionally pinning each service to
// machines (nil entries leave the scheduler free). replicas[i] <= 0
// means one replica.
func ScatterSLA(replicas [wire.NumSteps]int, pins [wire.NumSteps][]string) orchestrator.SLA {
	profiles := core.DefaultProfiles()
	gpuArchs := []string{
		string(testbed.ArchGeForceRTX), string(testbed.ArchAmpere), string(testbed.ArchTesla),
	}
	sla := orchestrator.SLA{AppName: "scatter"}
	for step := 0; step < wire.NumSteps; step++ {
		n := replicas[step]
		if n <= 0 {
			n = 1
		}
		ms := orchestrator.ServiceSLA{
			Name:     wire.Step(step).String(),
			Image:    "scatter/" + wire.Step(step).String(),
			Replicas: n,
			Requirements: orchestrator.Requirements{
				MemBytes: profiles[step].BaselineMem,
				Machines: pins[step],
			},
		}
		if profiles[step].UsesGPU() {
			ms.Requirements.NeedsGPU = true
			ms.Requirements.GPUArchIn = gpuArchs
		}
		sla.Microservices = append(sla.Microservices, ms)
	}
	return sla
}
