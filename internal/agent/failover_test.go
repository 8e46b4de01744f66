package agent

import (
	"iter"
	"maps"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/wire"
)

// fakeProcessor advances frames like the real services without the
// vision cost, so failover and chaos tests exercise the distributed
// machinery (transport, routing, control plane) at high frame rates.
type fakeProcessor struct {
	step  wire.Step
	delay time.Duration
}

func (p *fakeProcessor) Step() wire.Step { return p.step }

func (p *fakeProcessor) Process(fr *wire.Frame) error {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.step == wire.StepMatching {
		// The client decodes the final payload; give it a valid one.
		fr.Payload = (&core.Payload{}).Encode()
	}
	fr.Step = p.step.Next()
	return nil
}

// failoverHarness is a two-"machine" deployment driven by the real
// control plane: node n2 hosts everything except encoding, which lands
// on n1 and can be killed to force a migration.
type failoverHarness struct {
	root   *orchestrator.Root
	dep    *Deployer
	router *StaticRouter
	// t0 anchors the injected control-plane clock (DetectFailures takes
	// an explicit now, so tests need no real heartbeat waits).
	t0 time.Time
}

func startFailoverDeployment(t *testing.T, configure func(*WorkerConfig)) *failoverHarness {
	t.Helper()
	router := NewStaticRouter(nil)
	dep, err := NewDeployer(DeployerConfig{
		Mode:   core.ModeScatterPP,
		Router: router,
		NewProcessor: func(step wire.Step) core.Processor {
			return &fakeProcessor{step: step, delay: time.Millisecond}
		},
		Configure: configure,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	root := orchestrator.NewRoot(
		orchestrator.WithHooks(dep.Hooks()),
		orchestrator.WithHeartbeatTimeout(time.Second),
	)
	t0 := time.Unix(1000, 0)
	for _, name := range []string{"n1", "n2"} {
		err := root.RegisterNode(orchestrator.NodeInfo{
			Name: name, Cluster: "edge", CPUCores: 8, MemBytes: 8 << 30,
		}, t0)
		if err != nil {
			t.Fatal(err)
		}
	}
	mem := int64(128 << 20)
	pin := func(svc string) []string {
		if svc == "encoding" {
			// Prefer n1; n2 is the failover target.
			return []string{"n1", "n2"}
		}
		return []string{"n2"}
	}
	sla := orchestrator.SLA{AppName: "scatter"}
	for _, svc := range []string{"primary", "sift", "encoding", "lsh", "matching"} {
		sla.Microservices = append(sla.Microservices, orchestrator.ServiceSLA{
			Name: svc, Image: "scatter/" + svc, Replicas: 1,
			Requirements: orchestrator.Requirements{MemBytes: mem, Machines: pin(svc)},
		})
	}
	d, err := root.Deploy(sla)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range d.Instances {
		want := "n2"
		if inst.Service == "encoding" {
			want = "n1"
		}
		if inst.Node != want {
			t.Fatalf("%s placed on %s, want %s", inst.Key(), inst.Node, want)
		}
	}
	return &failoverHarness{root: root, dep: dep, router: router, t0: t0}
}

// failNode kills node's workers, then drives the control plane: the
// surviving node heartbeats, the dead one does not, and DetectFailures
// runs at a logical time past the heartbeat timeout.
func (h *failoverHarness) failNode(t *testing.T, node, survivor string) []orchestrator.Instance {
	t.Helper()
	if killed := h.dep.Kill(node); killed == 0 {
		t.Fatalf("no workers killed on %s", node)
	}
	now := h.t0.Add(time.Minute)
	err := h.root.Heartbeat(survivor, orchestrator.NodeStatus{LastHeartbeat: now})
	if err != nil {
		t.Fatal(err)
	}
	return h.root.DetectFailures(now)
}

// collectResults drains client results for the window and returns the
// count.
func collectResults(c *Client, window time.Duration) int {
	deadline := time.After(window)
	n := 0
	for {
		select {
		case <-c.Results():
			n++
		case <-deadline:
			return n
		}
	}
}

func TestFailoverMigratesAndReroutes(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e failover test")
	}
	h := startFailoverDeployment(t, nil)
	encBefore, ok := h.dep.Addr(wire.StepEncoding)
	if !ok {
		t.Fatal("no encoding worker after deploy")
	}
	ingress, ok := h.dep.Addr(wire.StepPrimary)
	if !ok {
		t.Fatal("no primary worker after deploy")
	}
	client, err := StartClient(ClientConfig{
		ID: 1, FPS: 50, Ingress: ingress,
		NextFrame: func(i int) []byte { return (&core.Payload{}).Encode() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Healthy pipeline first: results must flow end to end.
	deadline := time.After(10 * time.Second)
	for n := 0; n < 10; {
		select {
		case <-client.Results():
			n++
		case <-deadline:
			t.Fatalf("only %d results pre-failure; stats: %+v", n, h.dep.Stats())
		}
	}

	// Kill encoding's machine. Routes still point at the dead address
	// until the control plane reacts — that's the crash being simulated.
	migrated := h.failNode(t, "n1", "n2")
	if len(migrated) != 1 || migrated[0].Service != "encoding" || migrated[0].Node != "n2" {
		t.Fatalf("migrated = %+v, want encoding -> n2", migrated)
	}
	encAfter, ok := h.dep.Addr(wire.StepEncoding)
	if !ok {
		t.Fatal("no encoding worker after migration (OnSchedule hook did not fire)")
	}
	if encAfter == encBefore {
		t.Fatalf("encoding still at %s after migration", encAfter)
	}
	if addr, ok := h.router.Next(wire.StepEncoding); !ok || addr != encAfter {
		t.Fatalf("router routes encoding to %q, want migrated %q", addr, encAfter)
	}

	// Frames must flow through the migrated worker.
	deadline = time.After(10 * time.Second)
	for n := 0; n < 10; {
		select {
		case <-client.Results():
			n++
		case <-deadline:
			t.Fatalf("only %d results post-failover; stats: %+v", n, h.dep.Stats())
		}
	}
	if st := h.dep.Stats()["encoding"]; st.Processed == 0 {
		t.Errorf("migrated encoding worker processed nothing: %+v", st)
	}
}

func TestDeployerValidation(t *testing.T) {
	if _, err := NewDeployer(DeployerConfig{}); err == nil {
		t.Error("deployer without router accepted")
	}
	if _, err := NewDeployer(DeployerConfig{Router: NewStaticRouter(nil)}); err == nil {
		t.Error("deployer without processor factory accepted")
	}
}

func TestDeployerCloseStopsWorkers(t *testing.T) {
	h := startFailoverDeployment(t, nil)
	if err := h.dep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.dep.Addr(wire.StepPrimary); ok {
		t.Error("worker still listed after Close")
	}
	if _, ok := h.router.Next(wire.StepEncoding); ok {
		t.Error("routes not emptied after Close")
	}
	// Hooks arriving after Close must not start new workers.
	h.dep.onSchedule(orchestrator.Instance{App: "a", Service: "sift", Replica: 0, Node: "n2"})
	if _, ok := h.dep.Addr(wire.StepSIFT); ok {
		t.Error("worker started after Close")
	}
}

// Addr returns the ingress address of a live worker serving step (the
// first in deterministic order), or false when none runs.
func (d *Deployer) Addr(step wire.Step) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.workers))
	for k := range d.workers {
		if d.steps[k] == step {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "", false
	}
	sort.Strings(keys)
	return d.workers[keys[0]].Addr(), true
}

// Worker returns the live worker for an instance key.
func (d *Deployer) Worker(key string) (*Worker, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[key]
	return w, ok
}

// liveWorkers snapshots the deployer's running workers.
func (d *Deployer) liveWorkers() iter.Seq[*Worker] {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Values(slices.Collect(maps.Values(d.workers)))
}
