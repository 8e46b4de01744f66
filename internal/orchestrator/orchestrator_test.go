package orchestrator

import (
	"errors"
	"testing"
	"time"
)

func testbedNodes() []NodeInfo {
	return []NodeInfo{
		{Name: "E1", Cluster: "edge", CPUCores: 16, GPUs: 2, GPUArch: "geforce-rtx", MemBytes: 128 << 30},
		{Name: "E2", Cluster: "edge", CPUCores: 64, GPUs: 2, GPUArch: "ampere", MemBytes: 264 << 30},
		{Name: "cloud", Cluster: "cloud", CPUCores: 4, GPUs: 1, GPUArch: "tesla", MemBytes: 64 << 30},
	}
}

func newTestRoot(t *testing.T, opts ...Option) *Root {
	t.Helper()
	r := NewRoot(opts...)
	for _, n := range testbedNodes() {
		if err := r.RegisterNode(n, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func scatterSLA() SLA {
	gpuArchs := []string{"geforce-rtx", "ampere", "tesla"}
	return SLA{
		AppName: "scatter",
		Microservices: []ServiceSLA{
			{Name: "primary", Image: "scatter/primary", Replicas: 1,
				Requirements: Requirements{MemBytes: 400 << 20}},
			{Name: "sift", Image: "scatter/sift", Replicas: 1,
				Requirements: Requirements{MemBytes: 1200 << 20, NeedsGPU: true, GPUArchIn: gpuArchs}},
			{Name: "encoding", Image: "scatter/encoding", Replicas: 1,
				Requirements: Requirements{MemBytes: 800 << 20, NeedsGPU: true, GPUArchIn: gpuArchs}},
			{Name: "lsh", Image: "scatter/lsh", Replicas: 1,
				Requirements: Requirements{MemBytes: 600 << 20, NeedsGPU: true, GPUArchIn: gpuArchs}},
			{Name: "matching", Image: "scatter/matching", Replicas: 1,
				Requirements: Requirements{MemBytes: 1000 << 20, NeedsGPU: true, GPUArchIn: gpuArchs}},
		},
	}
}

func TestRegisterNodeValidation(t *testing.T) {
	r := NewRoot()
	if err := r.RegisterNode(NodeInfo{}, time.Now()); err == nil {
		t.Error("invalid node registered")
	}
	good := testbedNodes()[0]
	if err := r.RegisterNode(good, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterNode(good, time.Now()); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate register err = %v", err)
	}
}

// instancesOf returns the deployed replicas of one microservice, in
// deployment order.
func instancesOf(d *Deployment, service string) []Instance {
	var out []Instance
	for _, in := range d.Instances {
		if in.Service == service {
			out = append(out, in)
		}
	}
	return out
}

func TestClustersAndNodes(t *testing.T) {
	r := newTestRoot(t)
	ns := r.Nodes()
	if len(ns) != 3 {
		t.Fatalf("nodes = %v", ns)
	}
	clusters := map[string]bool{}
	for _, n := range ns {
		clusters[n.Cluster] = true
	}
	if len(clusters) != 2 || !clusters["cloud"] || !clusters["edge"] {
		t.Errorf("clusters = %v", clusters)
	}
}

func TestDeployPinnedPlacement(t *testing.T) {
	r := newTestRoot(t)
	sla := scatterSLA()
	// Pin the C12 configuration: primary+sift on E1, rest on E2.
	pins := []string{"E1", "E1", "E2", "E2", "E2"}
	for i := range sla.Microservices {
		sla.Microservices[i].Requirements.Machines = []string{pins[i]}
	}
	d, err := r.Deploy(sla)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Instances) != 5 {
		t.Fatalf("instances = %d", len(d.Instances))
	}
	for i, svc := range []string{"primary", "sift", "encoding", "lsh", "matching"} {
		insts := instancesOf(d, svc)
		if len(insts) != 1 || insts[0].Node != pins[i] {
			t.Errorf("%s placed on %+v, want %s", svc, insts, pins[i])
		}
	}
}

func TestDeployGPUConstraints(t *testing.T) {
	r := newTestRoot(t)
	sla := SLA{AppName: "gpu-only", Microservices: []ServiceSLA{{
		Name: "sift", Image: "x", Replicas: 1,
		Requirements: Requirements{NeedsGPU: true, GPUArchIn: []string{"ampere"}},
	}}}
	d, err := r.Deploy(sla)
	if err != nil {
		t.Fatal(err)
	}
	if d.Instances[0].Node != "E2" {
		t.Errorf("ampere-constrained service on %s, want E2", d.Instances[0].Node)
	}
	// An architecture nobody has is unschedulable.
	bad := SLA{AppName: "nope", Microservices: []ServiceSLA{{
		Name: "svc", Image: "x", Replicas: 1,
		Requirements: Requirements{NeedsGPU: true, GPUArchIn: []string{"hopper"}},
	}}}
	if _, err := r.Deploy(bad); !errors.Is(err, ErrUnschedulable) {
		t.Errorf("impossible arch err = %v", err)
	}
}

func TestDeployMemoryConstraint(t *testing.T) {
	r := newTestRoot(t)
	big := SLA{AppName: "big", Microservices: []ServiceSLA{{
		Name: "hog", Image: "x", Replicas: 1,
		Requirements: Requirements{MemBytes: 1 << 40}, // 1 TiB
	}}}
	if _, err := r.Deploy(big); !errors.Is(err, ErrUnschedulable) {
		t.Errorf("oversized memory err = %v", err)
	}
}

func TestDeployReplicasSpread(t *testing.T) {
	r := newTestRoot(t)
	sla := SLA{AppName: "spread", Microservices: []ServiceSLA{{
		Name: "svc", Image: "x", Replicas: 2,
		Requirements: Requirements{NeedsGPU: true, Clusters: []string{"edge"}},
	}}}
	d, err := r.Deploy(sla)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]bool{}
	for _, in := range d.Instances {
		nodes[in.Node] = true
	}
	if len(nodes) != 2 {
		t.Errorf("2 replicas on %v, want spread across E1+E2", nodes)
	}
}

func TestDeployPinnedReplicaOrder(t *testing.T) {
	r := newTestRoot(t)
	sla := SLA{AppName: "pinned", Microservices: []ServiceSLA{{
		Name: "sift", Image: "x", Replicas: 2,
		Requirements: Requirements{Machines: []string{"E2", "E1"}},
	}}}
	d, err := r.Deploy(sla)
	if err != nil {
		t.Fatal(err)
	}
	insts := instancesOf(d, "sift")
	if insts[0].Node != "E2" || insts[1].Node != "E1" {
		t.Errorf("pinned replica order = %s,%s want E2,E1", insts[0].Node, insts[1].Node)
	}
}

func TestDeployDuplicateApp(t *testing.T) {
	r := newTestRoot(t)
	if _, err := r.Deploy(scatterSLA()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Deploy(scatterSLA()); !errors.Is(err, ErrDuplicateApp) {
		t.Errorf("duplicate deploy err = %v", err)
	}
}

func TestDeployAllOrNothing(t *testing.T) {
	r := newTestRoot(t)
	sla := scatterSLA()
	sla.Microservices[4].Requirements.GPUArchIn = []string{"hopper"} // unsatisfiable
	if _, err := r.Deploy(sla); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("err = %v", err)
	}
	// Failed deploy must leave no reservations: the full SLA must still fit.
	if _, err := r.Deploy(scatterSLA()); err != nil {
		t.Errorf("redeploy after failed attempt: %v", err)
	}
}

func TestUndeployReleasesResources(t *testing.T) {
	var scheduled, removed []Instance
	r := newTestRoot(t, WithHooks(Hooks{
		OnSchedule: func(i Instance) { scheduled = append(scheduled, i) },
		OnRemove:   func(i Instance) { removed = append(removed, i) },
	}))
	if _, err := r.Deploy(scatterSLA()); err != nil {
		t.Fatal(err)
	}
	if len(scheduled) != 5 {
		t.Errorf("OnSchedule fired %d times", len(scheduled))
	}
	if err := r.Undeploy("scatter"); err != nil {
		t.Fatal(err)
	}
	if len(removed) != 5 {
		t.Errorf("OnRemove fired %d times", len(removed))
	}
	if err := r.Undeploy("scatter"); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("double undeploy err = %v", err)
	}
	if _, err := r.Deploy(scatterSLA()); err != nil {
		t.Errorf("redeploy after undeploy: %v", err)
	}
}

func TestHeartbeatAndStatus(t *testing.T) {
	r := newTestRoot(t)
	st := NodeStatus{CPUUtil: 0.4, GPUUtil: 0.2, MemUsed: 1 << 30, LastHeartbeat: time.Unix(100, 0)}
	if err := r.Heartbeat("E1", st); err != nil {
		t.Fatal(err)
	}
	got, err := r.Status("E1")
	if err != nil {
		t.Fatal(err)
	}
	if got.CPUUtil != 0.4 || got.MemUsed != 1<<30 {
		t.Errorf("status = %+v", got)
	}
	if err := r.Heartbeat("ghost", st); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node heartbeat err = %v", err)
	}
}

func TestFailureRedeployment(t *testing.T) {
	var removed, scheduled []Instance
	r := newTestRoot(t, WithHooks(Hooks{
		OnSchedule: func(i Instance) { scheduled = append(scheduled, i) },
		OnRemove:   func(i Instance) { removed = append(removed, i) },
	}), WithHeartbeatTimeout(time.Second))
	sla := scatterSLA()
	// Constrain everything to the edge cluster; pin sift to E1 initially.
	for i := range sla.Microservices {
		sla.Microservices[i].Requirements.Clusters = []string{"edge"}
	}
	sla.Microservices[1].Requirements.Machines = nil
	d, err := r.Deploy(sla)
	if err != nil {
		t.Fatal(err)
	}
	scheduled = scheduled[:0]

	// Heartbeat E2 and cloud recently; E1 goes silent.
	now := time.Unix(1000, 0)
	for _, n := range []string{"E2", "cloud"} {
		if err := r.Heartbeat(n, NodeStatus{LastHeartbeat: now}); err != nil {
			t.Fatal(err)
		}
	}
	// Detect within E2/cloud's heartbeat window but far past E1's last
	// report (registration at t=0).
	migrated := r.DetectFailures(now.Add(500 * time.Millisecond))
	var onE1 int
	for _, inst := range d.Instances {
		if inst.Node == "E1" {
			onE1++
		}
	}
	if onE1 == 0 {
		t.Skip("nothing was placed on E1")
	}
	if len(migrated) != onE1 {
		t.Fatalf("migrated %d instances, want %d (those on E1)", len(migrated), onE1)
	}
	for _, inst := range migrated {
		if inst.Node == "E1" {
			t.Errorf("instance %s migrated onto the dead node", inst.Key())
		}
		if inst.State != StateRunning {
			t.Errorf("migrated instance state = %s", inst.State)
		}
	}
	if len(removed) != onE1 || len(scheduled) != onE1 {
		t.Errorf("hooks: removed=%d scheduled=%d want %d", len(removed), len(scheduled), onE1)
	}
	// Deployment view reflects the migration.
	d2, err := r.Deployment("scatter")
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range d2.Instances {
		if inst.Node == "E1" {
			t.Errorf("deployment still shows %s on dead E1", inst.Key())
		}
	}
}

func TestDetectFailuresNoDeadNodes(t *testing.T) {
	r := newTestRoot(t, WithHeartbeatTimeout(time.Hour))
	if _, err := r.Deploy(scatterSLA()); err != nil {
		t.Fatal(err)
	}
	if migrated := r.DetectFailures(time.Unix(10, 0)); migrated != nil {
		t.Errorf("migrated = %v with healthy nodes", migrated)
	}
}

func TestSLAValidation(t *testing.T) {
	bad := []SLA{
		{},
		{AppName: "x"},
		{AppName: "x", Microservices: []ServiceSLA{{Name: "", Replicas: 1}}},
		{AppName: "x", Microservices: []ServiceSLA{{Name: "a", Replicas: 0}}},
		{AppName: "x", Microservices: []ServiceSLA{{Name: "a", Replicas: 1}, {Name: "a", Replicas: 1}}},
	}
	for i, sla := range bad {
		if err := sla.Validate(); err == nil {
			t.Errorf("SLA %d validated: %+v", i, sla)
		}
	}
}

func TestInstanceKey(t *testing.T) {
	in := Instance{App: "a", Service: "s", Replica: 2}
	if in.Key() != "a/s/2" {
		t.Errorf("key = %s", in.Key())
	}
}
