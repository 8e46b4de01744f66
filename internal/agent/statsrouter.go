package agent

import (
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/obs/routestats"
	"github.com/edge-mar/scatter/internal/wire"
)

// ReplicaPicker is the stats-aware routing contract the worker data
// plane upgrades to when its Router supports it: a pick that also hands
// back the replica's statistics window, so the forward path can feed
// send/ack/timeout outcomes into it.
type ReplicaPicker interface {
	Router
	// PickReplica resolves the next hop for step and the window to charge
	// the outcome to. The window may be nil (address known, no window —
	// e.g. a just-pushed route racing the table swap).
	PickReplica(step wire.Step) (addr string, rep *routestats.Replica, ok bool)
	// AckTimeout is the loss horizon the pending-ack sweeper uses; it
	// matches the window configuration so the feed and the statistics
	// agree on what "lost" means.
	AckTimeout() time.Duration
}

// StatsRouter routes like StaticRouter until its statistics windows are
// warm, then switches to power-of-two-choices over live weights. The
// round-robin fallback is bit-identical to StaticRouter — same sorted
// table, same per-step cursor — so a deployment whose windows are still
// cold behaves exactly like one routed by StaticRouter.
type StatsRouter struct {
	mu    sync.Mutex
	hops  map[wire.Step][]string
	index map[wire.Step]int
	table *routestats.Table
}

// NewStatsRouter builds a stats-driven router over a step→replicas table
// with the given window configuration (zero Config = defaults).
func NewStatsRouter(hops map[wire.Step][]string, cfg routestats.Config) *StatsRouter {
	r := &StatsRouter{table: routestats.New(cfg)}
	r.SetRoutes(hops)
	return r
}

// Table exposes the underlying statistics windows — what the obs
// registry's route source and heartbeat digests read.
func (r *StatsRouter) Table() *routestats.Table { return r.table }

// AckTimeout implements ReplicaPicker.
func (r *StatsRouter) AckTimeout() time.Duration { return r.table.Config().AckTimeout }

// SetRoutes atomically replaces the routing table, resetting the
// round-robin cursors exactly like StaticRouter.SetRoutes. Statistics
// windows of replicas that keep their address survive the swap.
func (r *StatsRouter) SetRoutes(hops map[wire.Step][]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := make(map[wire.Step][]string, len(hops))
	for k, v := range hops {
		cp[k] = append([]string(nil), v...)
	}
	r.hops = cp
	r.index = make(map[wire.Step]int)
	for step := wire.Step(0); int(step) < wire.NumSteps; step++ {
		r.table.SetReplicas(step, cp[step])
	}
}

// nextRR advances the deterministic round-robin cursor — StaticRouter's
// selection, verbatim.
func (r *StatsRouter) nextRR(step wire.Step) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addrs := r.hops[step]
	if len(addrs) == 0 {
		return "", false
	}
	i := r.index[step] % len(addrs)
	r.index[step]++
	return addrs[i], true
}

// Next implements Router.
func (r *StatsRouter) Next(step wire.Step) (string, bool) {
	addr, _, ok := r.PickReplica(step)
	return addr, ok
}

// PickReplica implements ReplicaPicker: p2c over live weights when
// warm, the deterministic round-robin otherwise. The
// fallback still resolves the replica window, so round-robin traffic is
// what warms a cold table.
func (r *StatsRouter) PickReplica(step wire.Step) (string, *routestats.Replica, bool) {
	if rep, _, ok := r.table.Pick(step); ok {
		return rep.Addr(), rep, true
	}
	addr, ok := r.nextRR(step)
	if !ok {
		return "", nil, false
	}
	return addr, r.table.Find(step, addr), true
}
