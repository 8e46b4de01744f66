// Package routestats maintains live per-(step, replica) routing
// statistics: an EWMA latency/loss window, in-flight counts, and an
// outlier-detection-style health state machine (healthy → degraded →
// ejected, with probation re-admission). It is the application-level
// signal substrate the paper's insight (IV) asks for — the orchestrator
// and the data plane both read it, the data plane to weight replica
// selection (power-of-two-choices over live weights), the control plane
// to tell a sick replica from a sick service.
//
// The structure is lock-light by design: the pick path — executed once
// per forwarded frame — touches only atomics (published replica sets,
// fixed-point weights, health states, a splitmix64 counter) and
// allocates nothing. The update path (one ack/timeout outcome per
// in-flight frame) takes a short per-replica mutex to fold the sample
// into the EWMAs and drive the state machine.
package routestats

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-mar/scatter/internal/wire"
)

// State is a replica's health classification.
type State uint32

// Health states. The machine moves Healthy ⇄ Degraded on the loss EWMA,
// drops to Ejected on sustained loss or consecutive failures, waits out
// a probation delay, then re-admits through Probation after enough
// consecutive successes.
const (
	StateHealthy State = iota
	StateDegraded
	StateProbation
	StateEjected
)

// String returns the state name used in digests and metrics.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateProbation:
		return "probation"
	case StateEjected:
		return "ejected"
	default:
		return fmt.Sprintf("state-%d", uint32(s))
	}
}

// Rank orders states from best to worst, for worst-of aggregation across
// observers (healthy < degraded < probation < ejected).
func (s State) Rank() int {
	switch s {
	case StateHealthy:
		return 0
	case StateDegraded:
		return 1
	case StateProbation:
		return 2
	default:
		return 3
	}
}

// ParseState is the inverse of String (unknown names rank as ejected).
func ParseState(name string) State {
	switch name {
	case "healthy":
		return StateHealthy
	case "degraded":
		return StateDegraded
	case "probation":
		return StateProbation
	default:
		return StateEjected
	}
}

// Config sets the window geometry and state-machine thresholds. The zero
// value means "use the defaults" for every field.
type Config struct {
	// Alpha is the EWMA sample weight for both the latency and the loss
	// window (default 0.2: roughly the last ~10 samples dominate).
	Alpha float64
	// AckTimeout is how long the sender waits for a hop acknowledgement
	// before counting the frame as lost (default 250 ms). Exposed here so
	// the feeding data plane and the window agree on one horizon.
	AckTimeout time.Duration
	// MinSamples is the per-replica warm-up: while any replica of a step
	// has fewer samples, Pick declines and the caller falls back to its
	// deterministic round-robin (which is exactly what warms the window).
	// Default 8.
	MinSamples uint64
	// DegradeLoss is the loss-EWMA level at which a replica turns
	// Degraded (default 0.05).
	DegradeLoss float64
	// EjectLoss is the loss-EWMA level at which a replica is Ejected
	// (default 0.5).
	EjectLoss float64
	// EjectFailures ejects after this many consecutive failures
	// regardless of the EWMA — the fast path for a blackholed replica
	// (default 8).
	EjectFailures uint32
	// Probation is how long an ejected replica sits out before probe
	// traffic may re-admit it (default 2 s).
	Probation time.Duration
	// ProbationSuccesses is how many consecutive probe successes promote
	// Probation back to Healthy (default 5).
	ProbationSuccesses uint32
	// ProbeEvery routes every Nth pick to the stalest non-ejected
	// replica (the one longest without traffic) so shed windows keep
	// receiving samples and can recover; p2c alone would starve a
	// low-weight replica forever, freezing the very statistics that
	// could re-admit it (default 16, 0 disables).
	ProbeEvery uint64
	// Seed seeds the pick path's splitmix64 sequence, making a run's
	// choices reproducible.
	Seed uint64
	// Now returns the current time in nanoseconds. Defaults to wall time;
	// the simulator injects its virtual clock.
	Now func() int64
}

// Defaults for the zero Config.
const (
	DefaultAlpha              = 0.2
	DefaultAckTimeout         = 250 * time.Millisecond
	DefaultMinSamples         = 8
	DefaultDegradeLoss        = 0.05
	DefaultEjectLoss          = 0.5
	DefaultEjectFailures      = 8
	DefaultProbation          = 2 * time.Second
	DefaultProbationSuccesses = 5
	DefaultProbeEvery         = 16
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultAlpha
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = DefaultAckTimeout
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.DegradeLoss <= 0 {
		c.DegradeLoss = DefaultDegradeLoss
	}
	if c.EjectLoss <= 0 {
		c.EjectLoss = DefaultEjectLoss
	}
	if c.EjectFailures == 0 {
		c.EjectFailures = DefaultEjectFailures
	}
	if c.Probation <= 0 {
		c.Probation = DefaultProbation
	}
	if c.ProbationSuccesses == 0 {
		c.ProbationSuccesses = DefaultProbationSuccesses
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = DefaultProbeEvery
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

// maxReplicasPerStep bounds one step's replica set (the pick path keeps
// its eligibility set in a 64-bit mask).
const maxReplicasPerStep = 64

// latencyFloorMicros keeps the weight finite for sub-microsecond EWMAs
// and damps the advantage of "instant" replicas over merely fast ones.
const latencyFloorMicros = 50.0

// weightScale converts the float goodness score to fixed-point so the
// pick path compares plain uint64s.
const weightScale = 1e9

// Replica is one live statistics window: a (step, replica address) pair.
// Begin/Outcome are the data-plane feed; all methods are safe for
// concurrent use.
type Replica struct {
	addr string
	cfg  *Config

	// Pick-path state: atomics only.
	state    atomic.Uint32
	weight   atomic.Uint64 // fixed-point goodness, higher is better
	samples  atomic.Uint64
	inflight atomic.Int64
	lastPick atomic.Int64 // nanos, for probe staleness ordering
	ejected  atomic.Int64 // nanos of the last ejection

	// Cumulative counters (digest/telemetry only).
	sent, acked, lost, sendErrs atomic.Uint64

	// Update-path state, folded under a short mutex.
	mu          sync.Mutex
	ewmaLatency float64 // µs, successes only
	ewmaLoss    float64 // 0..1
	consecFail  uint32
	probationOK uint32
}

// Addr returns the replica's ingress address.
func (r *Replica) Addr() string { return r.addr }

// State returns the replica's current health state.
func (r *Replica) State() State { return State(r.state.Load()) }

// Begin records a send to this replica; every Begin must be resolved by
// exactly one Outcome/OutcomeSendError call.
func (r *Replica) Begin() {
	r.sent.Add(1)
	r.inflight.Add(1)
}

// Outcome resolves one in-flight frame: ok with the measured one-hop
// latency (ack round-trip, or transit time in the simulator), or lost
// (timeout, transport drop, or downstream admission drop).
func (r *Replica) Outcome(latency time.Duration, ok bool) {
	r.inflight.Add(-1)
	r.samples.Add(1)
	if ok {
		r.acked.Add(1)
	} else {
		r.lost.Add(1)
	}
	r.fold(latency, ok)
}

// OutcomeSendError resolves one in-flight frame whose send failed
// locally (socket error) — a loss with its own counter.
func (r *Replica) OutcomeSendError() {
	r.sendErrs.Add(1)
	r.inflight.Add(-1)
	r.samples.Add(1)
	r.lost.Add(1)
	r.fold(0, false)
}

// fold integrates one sample into the EWMAs and drives the state
// machine, then republishes the fixed-point weight.
func (r *Replica) fold(latency time.Duration, ok bool) {
	cfg := r.cfg
	now := cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	a := cfg.Alpha
	if ok {
		us := float64(latency.Microseconds())
		if us < 0 {
			us = 0
		}
		if r.ewmaLatency == 0 {
			r.ewmaLatency = us
		} else {
			r.ewmaLatency = (1-a)*r.ewmaLatency + a*us
		}
		r.ewmaLoss = (1 - a) * r.ewmaLoss
		r.consecFail = 0
	} else {
		r.ewmaLoss = (1-a)*r.ewmaLoss + a
		r.consecFail++
	}
	switch State(r.state.Load()) {
	case StateProbation:
		if !ok {
			r.ejectLocked(now)
		} else {
			r.probationOK++
			if r.probationOK >= cfg.ProbationSuccesses {
				// Re-admit with a clean loss window: the ejection-era
				// EWMA would otherwise re-degrade it instantly.
				r.ewmaLoss = 0
				r.state.Store(uint32(StateHealthy))
			}
		}
	case StateEjected:
		// A stale outcome from before the ejection; counters and EWMAs
		// were updated above, the state waits out its probation delay.
	default: // Healthy, Degraded
		switch {
		case r.ewmaLoss >= cfg.EjectLoss || r.consecFail >= cfg.EjectFailures:
			r.ejectLocked(now)
		case r.ewmaLoss >= cfg.DegradeLoss:
			r.state.Store(uint32(StateDegraded))
		default:
			r.state.Store(uint32(StateHealthy))
		}
	}
	r.weight.Store(r.weightLocked())
}

// ejectLocked moves the replica to Ejected and stamps the sit-out clock.
func (r *Replica) ejectLocked(now int64) {
	r.state.Store(uint32(StateEjected))
	r.ejected.Store(now)
	r.probationOK = 0
}

// weightLocked computes the fixed-point goodness score: success
// probability squared (so loss hurts twice) over the latency EWMA.
func (r *Replica) weightLocked() uint64 {
	succ := 1 - r.ewmaLoss
	if succ < 0 {
		succ = 0
	}
	return uint64(weightScale * succ * succ / (r.ewmaLatency + latencyFloorMicros))
}

// snapshot reads the mutex-guarded fields for a digest.
func (r *Replica) snapshot() (latencyMicros uint64, loss float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return uint64(r.ewmaLatency), r.ewmaLoss
}

// replicaSet is one step's immutable, atomically published replica list.
type replicaSet struct {
	replicas []*Replica
}

// Table holds the per-step replica windows. One Table serves one node's
// outbound routing; the simulator mirrors it per pipeline.
type Table struct {
	cfg   Config
	sets  [wire.NumSteps]atomic.Pointer[replicaSet]
	rng   atomic.Uint64
	picks atomic.Uint64
}

// New builds a table with cfg's zero fields defaulted.
func New(cfg Config) *Table {
	t := &Table{cfg: cfg.withDefaults()}
	t.rng.Store(t.cfg.Seed)
	return t
}

// Config returns the effective (defaulted) configuration.
func (t *Table) Config() Config { return t.cfg }

// now returns the configured clock's nanoseconds.
func (t *Table) now() int64 { return t.cfg.Now() }

// SetReplicas atomically replaces one step's replica set. Windows of
// addresses present in the old set survive the swap — a control-plane
// route push must not amnesia the statistics of replicas that merely
// kept their place. Sets beyond maxReplicasPerStep are truncated.
func (t *Table) SetReplicas(step wire.Step, addrs []string) {
	if int(step) >= wire.NumSteps {
		return
	}
	if len(addrs) > maxReplicasPerStep {
		addrs = addrs[:maxReplicasPerStep]
	}
	old := t.sets[step].Load()
	set := &replicaSet{replicas: make([]*Replica, 0, len(addrs))}
	for _, addr := range addrs {
		var rep *Replica
		if old != nil {
			for _, r := range old.replicas {
				if r.addr == addr {
					rep = r
					break
				}
			}
		}
		if rep == nil {
			rep = &Replica{addr: addr, cfg: &t.cfg}
		}
		set.replicas = append(set.replicas, rep)
	}
	t.sets[step].Store(set)
}

// Find returns the window for one (step, address) pair, or nil. The
// linear scan is allocation-free and replica sets are small.
func (t *Table) Find(step wire.Step, addr string) *Replica {
	if int(step) >= wire.NumSteps {
		return nil
	}
	set := t.sets[step].Load()
	if set == nil {
		return nil
	}
	for _, r := range set.replicas {
		if r.addr == addr {
			return r
		}
	}
	return nil
}

// rnd advances the table's splitmix64 sequence — deterministic under the
// seed, race-safe, and allocation-free.
func (t *Table) rnd() uint64 {
	x := t.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Pick selects a replica for step by power-of-two-choices over the live
// weights. It declines (ok=false) while the step is unknown, empty, or
// cold — any replica below MinSamples — so the caller can fall back to
// its deterministic round-robin; the fallback traffic is what warms the
// window. Every ProbeEvery-th pick routes to the stalest non-healthy
// replica instead, keeping degraded and probation windows fed. When
// every replica is ejected or on probation the pick fails open across
// all of them (sending into a possibly-sick replica beats dropping the
// frame on the floor).
func (t *Table) Pick(step wire.Step) (*Replica, int, bool) {
	if int(step) >= wire.NumSteps {
		return nil, 0, false
	}
	set := t.sets[step].Load()
	if set == nil || len(set.replicas) == 0 {
		return nil, 0, false
	}
	reps := set.replicas
	now := t.now()
	cfg := &t.cfg
	var eligible uint64
	nEligible := 0
	for i, r := range reps {
		if r.samples.Load() < cfg.MinSamples {
			return nil, 0, false // cold window → deterministic fallback
		}
		st := State(r.state.Load())
		if st == StateEjected && now-r.ejected.Load() >= int64(cfg.Probation) {
			// Lazy promotion: the sit-out is over; probe traffic may now
			// re-admit it.
			if r.state.CompareAndSwap(uint32(StateEjected), uint32(StateProbation)) {
				st = StateProbation
			} else {
				st = State(r.state.Load())
			}
		}
		if st == StateHealthy || st == StateDegraded {
			eligible |= 1 << uint(i)
			nEligible++
		}
	}
	picks := t.picks.Add(1)
	if cfg.ProbeEvery > 0 && picks%cfg.ProbeEvery == 0 {
		if i, ok := t.probeIndex(reps, now); ok {
			r := reps[i]
			r.lastPick.Store(now)
			return r, i, true
		}
	}
	if nEligible == 0 {
		// Fail open: everything is ejected/probation.
		eligible = (uint64(1) << uint(len(reps))) - 1
		nEligible = len(reps)
	}
	var idx int
	if nEligible == 1 {
		idx = selectBit(eligible, 0)
	} else {
		ra := t.rnd() % uint64(nEligible)
		rb := t.rnd() % uint64(nEligible-1)
		if rb >= ra {
			rb++
		}
		ia := selectBit(eligible, int(ra))
		ib := selectBit(eligible, int(rb))
		wa := reps[ia].weight.Load()
		wb := reps[ib].weight.Load()
		idx = ia
		if wb > wa || (wb == wa && ib < ia) {
			idx = ib
		}
	}
	r := reps[idx]
	r.lastPick.Store(now)
	return r, idx, true
}

// probeIndex finds the stalest non-ejected replica — the window longest
// without a sample. Probing only replicas staler than the median would
// save a few ticks; probing the stalest unconditionally is simpler and
// degenerates to a slow round-robin when traffic is already even.
func (t *Table) probeIndex(reps []*Replica, now int64) (int, bool) {
	best, bestAge := -1, int64(-1)
	for i, r := range reps {
		if State(r.state.Load()) == StateEjected {
			continue
		}
		age := now - r.lastPick.Load()
		if age > bestAge {
			best, bestAge = i, age
		}
	}
	return best, best >= 0
}

// selectBit returns the index of the rank-th set bit of mask.
func selectBit(mask uint64, rank int) int {
	for i := 0; i < 64; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if rank == 0 {
			return i
		}
		rank--
	}
	return 0 // unreachable for rank < popcount(mask)
}

// RouteDigest is one replica window's exportable snapshot — what rides
// heartbeats, the scatter_route_* metric series, and the /routes view.
type RouteDigest struct {
	Step          string  `json:"step"`
	Replica       string  `json:"replica"`
	State         string  `json:"state"`
	Weight        float64 `json:"weight"`
	LatencyMicros uint64  `json:"latency_us"`
	LossRatio     float64 `json:"loss_ratio"`
	Inflight      int64   `json:"inflight"`
	Sent          uint64  `json:"sent"`
	Acked         uint64  `json:"acked"`
	Lost          uint64  `json:"lost"`
	SendErrors    uint64  `json:"send_errors"`
	Cold          bool    `json:"cold,omitempty"`
}

// Digest snapshots every window, ordered by step then replica position.
func (t *Table) Digest() []RouteDigest {
	var out []RouteDigest
	for step := 0; step < wire.NumSteps; step++ {
		set := t.sets[step].Load()
		if set == nil {
			continue
		}
		for _, r := range set.replicas {
			lat, loss := r.snapshot()
			out = append(out, RouteDigest{
				Step:          wire.Step(step).String(),
				Replica:       r.addr,
				State:         r.State().String(),
				Weight:        float64(r.weight.Load()) / weightScale,
				LatencyMicros: lat,
				LossRatio:     loss,
				Inflight:      r.inflight.Load(),
				Sent:          r.sent.Load(),
				Acked:         r.acked.Load(),
				Lost:          r.lost.Load(),
				SendErrors:    r.sendErrs.Load(),
				Cold:          r.samples.Load() < t.cfg.MinSamples,
			})
		}
	}
	return out
}
