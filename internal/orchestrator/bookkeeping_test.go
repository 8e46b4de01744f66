package orchestrator

import (
	"testing"
	"time"
)

// twoNodeRoot registers nodes A (memA) and B (memB) in one "edge"
// cluster.
func twoNodeRoot(t *testing.T, memA, memB int64, opts ...Option) *Root {
	t.Helper()
	r := NewRoot(opts...)
	for _, n := range []NodeInfo{
		{Name: "A", Cluster: "edge", CPUCores: 8, MemBytes: memA},
		{Name: "B", Cluster: "edge", CPUCores: 8, MemBytes: memB},
	} {
		if err := r.RegisterNode(n, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// booked is what the Root has committed across its nodes.
type booked struct {
	ReservedMem int64
	Instances   int
}

// reservations sums the Root's committed reservations over every node.
func reservations(r *Root) booked {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b booked
	for _, n := range r.nodes {
		b.ReservedMem += n.reservedMem
		b.Instances += n.instances
	}
	return b
}

// TestFailoverConservesReservedMem is the regression test for the
// DetectFailures bookkeeping bug: the migration target got instances++
// but never reservedMem += the service's memory, so every failover
// leaked a reservation and the cluster's accounted capacity drifted.
func TestFailoverConservesReservedMem(t *testing.T) {
	const mem = 1 << 30
	r := twoNodeRoot(t, 8<<30, 8<<30, WithHeartbeatTimeout(time.Second))
	sla := SLA{AppName: "app", Microservices: []ServiceSLA{{
		Name: "svc", Image: "x", Replicas: 1,
		Requirements: Requirements{MemBytes: mem, Machines: []string{"A"}},
	}}}
	if _, err := r.Deploy(sla); err != nil {
		t.Fatal(err)
	}
	if res := reservations(r); res.ReservedMem != mem || res.Instances != 1 {
		t.Fatalf("after deploy: %+v", res)
	}
	// A goes silent; the pin must be widened or the migration has nowhere
	// to go — re-pin to both so failover to B is legal.
	r.mu.Lock()
	r.deployed["app"].sla.Microservices[0].Requirements.Machines = []string{"A", "B"}
	r.mu.Unlock()
	now := time.Unix(1000, 0)
	if err := r.Heartbeat("B", NodeStatus{LastHeartbeat: now}); err != nil {
		t.Fatal(err)
	}
	migrated := r.DetectFailures(now)
	if len(migrated) != 1 || migrated[0].Node != "B" {
		t.Fatalf("migrated = %+v", migrated)
	}
	res := reservations(r)
	if res.ReservedMem != mem {
		t.Errorf("reserved mem after failover = %d, want %d (conserved)", res.ReservedMem, mem)
	}
	if res.Instances != 1 {
		t.Errorf("instances after failover = %d, want 1", res.Instances)
	}
}

// TestFailoverCannotOvercommit drives repeated migrations at a target
// too small for all of them: without the reservation commit, memory
// feasibility never sees earlier migrations and the node overcommits.
func TestFailoverCannotOvercommit(t *testing.T) {
	const mem = 1 << 30
	// A fits all three services; B fits exactly one.
	r := twoNodeRoot(t, 4<<30, 1<<30, WithHeartbeatTimeout(time.Second))
	sla := SLA{AppName: "app", Microservices: []ServiceSLA{
		{Name: "s1", Image: "x", Replicas: 1, Requirements: Requirements{MemBytes: mem, Machines: []string{"A", "B"}}},
		{Name: "s2", Image: "x", Replicas: 1, Requirements: Requirements{MemBytes: mem, Machines: []string{"A", "B"}}},
		{Name: "s3", Image: "x", Replicas: 1, Requirements: Requirements{MemBytes: mem, Machines: []string{"A", "B"}}},
	}}
	d, err := r.Deploy(sla)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range d.Instances {
		if inst.Node != "A" {
			t.Fatalf("%s deployed on %s, want A (pin order)", inst.Key(), inst.Node)
		}
	}
	now := time.Unix(1000, 0)
	if err := r.Heartbeat("B", NodeStatus{LastHeartbeat: now}); err != nil {
		t.Fatal(err)
	}
	migrated := r.DetectFailures(now)
	if len(migrated) != 1 {
		t.Fatalf("migrated %d services onto a node with room for 1", len(migrated))
	}
	res := reservations(r)
	if res.ReservedMem != mem {
		t.Errorf("reserved mem = %d, want %d (B must not overcommit)", res.ReservedMem, mem)
	}
	d2, err := r.Deployment("app")
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	for _, inst := range d2.Instances {
		if inst.State == StateFailed {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("failed instances = %d, want 2 (no capacity on B)", failed)
	}
}

// TestUndeployAfterFailedMigration guards the double-release: a failed
// migration already gave back the dead node's reservation, so Undeploy
// releasing it again would drive the books negative and hand phantom
// capacity to the next deployment.
func TestUndeployAfterFailedMigration(t *testing.T) {
	const mem = 1 << 30
	r := twoNodeRoot(t, 4<<30, 1<<30, WithHeartbeatTimeout(time.Second))
	sla := SLA{AppName: "app", Microservices: []ServiceSLA{
		{Name: "s1", Image: "x", Replicas: 1, Requirements: Requirements{MemBytes: mem, Machines: []string{"A", "B"}}},
		{Name: "s2", Image: "x", Replicas: 1, Requirements: Requirements{MemBytes: mem, Machines: []string{"A", "B"}}},
	}}
	if _, err := r.Deploy(sla); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	if err := r.Heartbeat("B", NodeStatus{LastHeartbeat: now}); err != nil {
		t.Fatal(err)
	}
	if migrated := r.DetectFailures(now); len(migrated) != 1 {
		t.Fatalf("migrated = %d, want 1", len(migrated))
	}
	if err := r.Undeploy("app"); err != nil {
		t.Fatal(err)
	}
	res := reservations(r)
	if res.ReservedMem != 0 || res.Instances != 0 {
		t.Errorf("after undeploy: reserved=%d instances=%d, want 0/0", res.ReservedMem, res.Instances)
	}
}

// TestPlaceDoesNotMutateCandidates pins the placement contract: place is
// pure and the Root alone commits reservations.
func TestPlaceDoesNotMutateCandidates(t *testing.T) {
	mkNodes := func() []*node {
		return []*node{
			{info: NodeInfo{Name: "A", Cluster: "edge", CPUCores: 8, MemBytes: 4 << 30}, alive: true},
			{info: NodeInfo{Name: "B", Cluster: "edge", CPUCores: 8, MemBytes: 8 << 30}, alive: true},
		}
	}
	svc := ServiceSLA{Name: "svc", Image: "x", Replicas: 3,
		Requirements: Requirements{MemBytes: 1 << 30}}
	nodes := mkNodes()
	first, err := place(svc, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n.reservedMem != 0 || n.instances != 0 {
			t.Errorf("place mutated candidate %s: reserved=%d instances=%d",
				n.info.Name, n.reservedMem, n.instances)
		}
	}
	// Purity implies the same call repeats identically.
	second, err := place(svc, nodes)
	if err != nil {
		t.Fatalf("second call: %v", err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Error("place is not deterministic across identical calls")
		}
	}
}

// TestPlaceInPassMemoryAccounting verifies that a pure Place still
// refuses to stack more replicas onto a node than its memory allows
// within one call.
func TestPlaceInPassMemoryAccounting(t *testing.T) {
	nodes := []*node{
		{info: NodeInfo{Name: "A", Cluster: "edge", CPUCores: 8, MemBytes: 2 << 30}, alive: true},
	}
	svc := ServiceSLA{Name: "svc", Image: "x", Replicas: 3,
		Requirements: Requirements{MemBytes: 1 << 30}}
	if _, err := place(svc, nodes); err == nil {
		t.Error("placed 3 GiB of replicas onto a 2 GiB node")
	}
}
