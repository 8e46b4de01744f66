package orchestrator

import (
	"errors"
	"fmt"
	"sort"
)

// ErrUnschedulable is returned when no node satisfies a microservice's
// requirements.
var ErrUnschedulable = errors.New("orchestrator: unschedulable")

// node is the scheduler's internal view of a worker.
type node struct {
	info   NodeInfo
	status NodeStatus
	// reservedMem is the memory committed to scheduled instances (the
	// scheduler's bookkeeping, distinct from live telemetry).
	reservedMem int64
	// instances counts replicas scheduled here (for spreading).
	instances int
	alive     bool
}

// feasible reports whether the node satisfies the requirements, given
// extraMem bytes already tentatively placed on it earlier in the same
// scheduling pass. Place must not mutate candidates, so in-pass
// reservations travel beside the node, not on it.
func (n *node) feasible(r Requirements, extraMem int64) bool {
	if !n.alive {
		return false
	}
	if r.NeedsGPU && n.info.GPUs == 0 {
		return false
	}
	if len(r.GPUArchIn) > 0 {
		ok := false
		for _, arch := range r.GPUArchIn {
			if arch == n.info.GPUArch {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(r.Clusters) > 0 {
		ok := false
		for _, c := range r.Clusters {
			if c == n.info.Cluster {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(r.Machines) > 0 {
		ok := false
		for _, m := range r.Machines {
			if m == n.info.Name {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if n.reservedMem+extraMem+r.MemBytes > n.info.MemBytes {
		return false
	}
	return true
}

// place is the placement policy, mirroring Oakestra's resource-aware
// behaviour: filter infeasible nodes, then for each replica pick the
// feasible node with (a) the fewest scheduled instances and (b) the most
// free memory, preferring pinned machine order when the SLA pins
// machines. Replicas of one service spread across distinct nodes when
// possible.
//
// It returns one node per replica (a node may repeat) and is
// deterministic for a given input, so experiment placements reproduce. It
// does not mutate the candidates: the Root alone commits reservations
// (instances, reserved memory) once a placement is accepted, so a
// rejected or partially failed placement leaves no residue. Replicas
// placed earlier in the same call are tracked locally when judging the
// feasibility of later ones.
func place(svc ServiceSLA, candidates []*node) ([]*node, error) {
	r := svc.Requirements
	var out []*node
	// Track per-call placements locally so multiple replicas spread and
	// memory feasibility accounts for them — candidates stay unmutated.
	extra := make(map[*node]int)
	extraMem := make(map[*node]int64)
	for replica := 0; replica < svc.Replicas; replica++ {
		var feasible []*node
		for _, n := range candidates {
			if n.feasible(r, extraMem[n]) {
				feasible = append(feasible, n)
			}
		}
		if len(feasible) == 0 {
			return nil, fmt.Errorf("%w: %s replica %d (no feasible node)", ErrUnschedulable, svc.Name, replica)
		}
		pinRank := func(n *node) int {
			for i, m := range r.Machines {
				if n.info.Name == m {
					return i
				}
			}
			return len(r.Machines)
		}
		sort.SliceStable(feasible, func(i, j int) bool {
			a, b := feasible[i], feasible[j]
			// Pinned order dominates: the paper's configurations name
			// machines in priority order.
			if pa, pb := pinRank(a), pinRank(b); pa != pb {
				return pa < pb
			}
			ai := a.instances + extra[a]
			bi := b.instances + extra[b]
			if ai != bi {
				return ai < bi
			}
			af := a.info.MemBytes - a.reservedMem - extraMem[a]
			bf := b.info.MemBytes - b.reservedMem - extraMem[b]
			if af != bf {
				return af > bf
			}
			return a.info.Name < b.info.Name
		})
		pick := feasible[0]
		// Spread replicas of this call across pinned machines round-robin
		// when multiple are pinned: replica k prefers pin k mod len(pins),
		// and when that pin is infeasible (full, dead, filtered) falls
		// through to the next pin in priority order, wrapping — not to
		// feasible[0], which would stack every displaced replica on the
		// first-ranked machine.
		if len(r.Machines) > 1 {
		pins:
			for off := 0; off < len(r.Machines); off++ {
				want := r.Machines[(replica+off)%len(r.Machines)]
				for _, n := range feasible {
					if n.info.Name == want {
						pick = n
						break pins
					}
				}
			}
		}
		extraMem[pick] += r.MemBytes
		extra[pick]++
		out = append(out, pick)
	}
	return out, nil
}
