package orchestrator

import "testing"

func pinNode(name string, mem int64) *node {
	return &node{
		info:  NodeInfo{Name: name, Cluster: "edge", CPUCores: 8, MemBytes: mem},
		alive: true,
	}
}

// TestSpreadPinFallThrough is the regression test for the pinned
// round-robin fallback: when replica k's preferred pin is infeasible, the
// replica must fall through to the NEXT pin in priority order — the old
// code fell back to feasible[0], stacking every displaced replica on the
// first-ranked machine.
func TestSpreadPinFallThrough(t *testing.T) {
	e1 := pinNode("E1", 8<<30)
	e2 := pinNode("E2", 0) // full: infeasible for any request
	e3 := pinNode("E3", 8<<30)
	svc := ServiceSLA{
		Name: "sift", Image: "x", Replicas: 3,
		Requirements: Requirements{MemBytes: 1 << 30, Machines: []string{"E1", "E2", "E3"}},
	}
	nodes, err := place(svc, []*node{e1, e2, e3})
	if err != nil {
		t.Fatal(err)
	}
	got := []string{nodes[0].info.Name, nodes[1].info.Name, nodes[2].info.Name}
	// Replica 1 prefers the full E2 and must land on the next pin E3 —
	// not back on E1 (the old feasible[0] fallback).
	want := []string{"E1", "E3", "E3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placement = %v, want %v", got, want)
		}
	}
}

// TestSpreadPinFallThroughWraps checks the wrap-around arm: a displaced
// replica whose later pins are all infeasible walks past the end of the
// pin list back to the earlier pins.
func TestSpreadPinFallThroughWraps(t *testing.T) {
	e1 := pinNode("E1", 8<<30)
	e2 := pinNode("E2", 0)
	// E3 fits exactly one replica; in-pass memory bookkeeping must stop a
	// second one from landing there.
	e3 := pinNode("E3", 1<<30+1<<29)
	svc := ServiceSLA{
		Name: "sift", Image: "x", Replicas: 3,
		Requirements: Requirements{MemBytes: 1 << 30, Machines: []string{"E1", "E2", "E3"}},
	}
	nodes, err := place(svc, []*node{e1, e2, e3})
	if err != nil {
		t.Fatal(err)
	}
	got := []string{nodes[0].info.Name, nodes[1].info.Name, nodes[2].info.Name}
	// Replica 2 prefers E3 (now full from replica 1's tentative placement)
	// and E2 is full too, so it wraps to E1.
	want := []string{"E1", "E3", "E1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placement = %v, want %v", got, want)
		}
	}
}

// TestSpreadPlaceLeavesCandidatesUnmutated is the bookkeeping regression
// rider: Place must track in-pass reservations locally — the Root alone
// commits them — so a rejected placement leaves no residue.
func TestSpreadPlaceLeavesCandidatesUnmutated(t *testing.T) {
	e1 := pinNode("E1", 8<<30)
	e2 := pinNode("E2", 8<<30)
	svc := ServiceSLA{
		Name: "sift", Image: "x", Replicas: 4,
		Requirements: Requirements{MemBytes: 1 << 30, Machines: []string{"E1", "E2"}},
	}
	if _, err := place(svc, []*node{e1, e2}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*node{e1, e2} {
		if n.instances != 0 || n.reservedMem != 0 {
			t.Errorf("%s mutated by Place: instances=%d reservedMem=%d",
				n.info.Name, n.instances, n.reservedMem)
		}
	}
}
