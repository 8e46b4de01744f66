package core

import (
	"fmt"
	"time"

	"github.com/edge-mar/scatter/internal/metrics"
	"github.com/edge-mar/scatter/internal/netem"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/obs/routestats"
	"github.com/edge-mar/scatter/internal/sim"
	"github.com/edge-mar/scatter/internal/testbed"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/wire"
)

// Mode selects the pipeline variant under test.
type Mode int

// The two systems the paper evaluates.
const (
	// ModeScatter is the baseline: stateful sift with a matching fetch
	// dependency loop, one frame in flight per service, and busy-drop
	// semantics (outstanding requests at busy services are dropped).
	ModeScatter Mode = iota
	// ModeScatterPP is scAtteR++: stateless sift (state rides in the
	// frame) and a sidecar in front of every service that queues,
	// threshold-filters, and RPCs requests in FIFO order.
	ModeScatterPP
)

// String names the mode as in the paper.
func (m Mode) String() string {
	if m == ModeScatterPP {
		return "scAtteR++"
	}
	return "scAtteR"
}

// Options tunes pipeline semantics. NewPipeline fills zero fields with
// the paper's parameters.
type Options struct {
	Mode Mode
	// Threshold is the scAtteR++ sidecar latency budget: frames whose
	// cumulative age exceeds it are dropped from the queue (100 ms, the
	// maximum tolerable XR latency).
	Threshold time.Duration
	// QueueCap bounds each sidecar queue.
	QueueCap int
	// FetchTimeout is how long matching busy-waits for sift's state
	// before discarding the frame (scAtteR).
	FetchTimeout time.Duration
	// StateTimeout is how long sift retains an unclaimed frame state.
	StateTimeout time.Duration
	// SidecarOverhead is the per-request RPC cost the sidecar adds.
	SidecarOverhead time.Duration
	// LBOverhead is the semantic-addressing proxy cost added when a step
	// has multiple replicas to balance across.
	LBOverhead time.Duration
	// ResultBytes is the size of the processed frame returned to the
	// client.
	ResultBytes int
	// ReliableTransport retransmits frames lost on a link instead of
	// dropping them (the paper's A.1.2 note that improved network
	// protocols instead of UDP may alleviate the hybrid deployment's
	// frame drops). Each retry costs one link RTT plus a small
	// retransmission timeout; Retries bounds the attempts (default 3
	// when reliable).
	ReliableTransport bool
	Retries           int
	// WeightedRouting replaces the plain round-robin replica selection
	// with the runtime's stats-driven power-of-two-choices over live
	// per-replica windows (mirroring agent.StatsRouter). Windows are fed
	// at admission, exactly like the real data plane's hop acks: an
	// accepted frame is an OK outcome carrying the hop's transit+wait
	// latency; a busy/overflow drop or a terminal link loss is a loss
	// outcome. While any window of a step is cold, selection falls back
	// to the same deterministic round-robin as when this flag is off.
	WeightedRouting bool
	// RouteStats tunes the route windows when WeightedRouting is on. The
	// zero value takes the routestats defaults; Now is always overridden
	// with the engine's virtual clock, and a zero Seed is drawn from the
	// engine's deterministic RNG so runs stay reproducible.
	RouteStats routestats.Config
	// FastPath mirrors the runtime's tracker-gated recognition fast path
	// (core.FastPathGate): once a client's tracker is warm, frames are
	// answered at the primary stage for only GateCost and skip
	// sift→encoding→lsh→matching entirely. Disabled (the zero value),
	// scheduling is bit-identical to a build without the option.
	FastPath FastPathSimOptions
	// Sharding mirrors the sharded reference database (lsh.ShardedIndex /
	// agent.ShardGather) at the lsh step: per-dispatch compute drops to
	// the per-shard share plus a gather overhead, and shard legs can miss
	// the gather window. Disabled (the zero value), scheduling is
	// bit-identical to a build without the option.
	Sharding ShardingSimOptions
}

// ShardingSimOptions mirrors the scatter/gather reference-database layout
// on the simulator's virtual clock. The sim holds no reference vectors;
// what it models is the cost shape: each lsh dispatch pays the ranking
// cost of one shard's partition (CPUTime/Shards — candidate counts scale
// with partition size) plus the fan-out/merge overhead, and a shard leg
// that misses the gather window stalls the gather for GatherTimeout.
// Below-quorum gathers proceed with empty candidates, exactly like the
// runtime's ShardGather returning nil to the recognition service.
type ShardingSimOptions struct {
	Enabled bool
	// Shards is the hash-space partition count (default 4).
	Shards int
	// Replication is the replicas kept per shard — telemetry only in the
	// sim, where replica choice has no cost asymmetry (default 1).
	Replication int
	// Quorum is the minimum shard responses a gather needs to deliver
	// candidates. Zero defaults to Shards — strict bit-identity.
	Quorum int
	// GatherOverhead is the per-gather fan-out + k-way merge cost added
	// on top of the per-shard compute (default 200µs).
	GatherOverhead time.Duration
	// GatherTimeout is how long a gather waits out missing shard legs
	// (default 20ms).
	GatherTimeout time.Duration
	// ShardLossProb is the per-leg probability a shard misses the gather
	// window (replica overload, transit loss). Drawn from the engine's
	// deterministic RNG.
	ShardLossProb float64
}

// FastPathSimOptions mirrors FastPathConfig on the simulator's virtual
// clock. The sim has no real frames or trackers, so warm-up is modelled
// on delivered full recognitions: after WarmHits consecutive full results
// a client's track is warm; warm frames skip, except every
// RefreshEvery-th frame (drift-bounding refresh) and after TrackTTL
// without any result (track loss — e.g. the client stalled or its frames
// were dropped).
type FastPathSimOptions struct {
	Enabled bool
	// WarmHits is how many full recognitions must be delivered back-to-
	// back before the gate starts skipping (default 3 — the confidence
	// EWMA's rise time at the default gain).
	WarmHits int
	// RefreshEvery forces a full recognition at least every N-th frame
	// per client (default 30).
	RefreshEvery int
	// TrackTTL is how long a track survives without any delivered result
	// before the warm state resets (default 2s).
	TrackTTL time.Duration
	// GateCost is the primary-stage compute a skipped frame pays (gate
	// lookup + verdict copy) instead of the full pipeline (default 100µs).
	GateCost time.Duration
}

func (o Options) withDefaults() Options {
	if o.Threshold <= 0 {
		o.Threshold = 100 * time.Millisecond
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.FetchTimeout <= 0 {
		o.FetchTimeout = 30 * time.Millisecond
	}
	if o.StateTimeout <= 0 {
		o.StateTimeout = time.Second
	}
	if o.SidecarOverhead <= 0 {
		o.SidecarOverhead = 300 * time.Microsecond
	}
	if o.LBOverhead <= 0 {
		o.LBOverhead = 800 * time.Microsecond
	}
	if o.ResultBytes <= 0 {
		o.ResultBytes = trace.FrameBytes(false)
	}
	if o.ReliableTransport && o.Retries <= 0 {
		o.Retries = 3
	}
	if o.FastPath.Enabled {
		if o.FastPath.WarmHits <= 0 {
			o.FastPath.WarmHits = 3
		}
		if o.FastPath.RefreshEvery <= 0 {
			o.FastPath.RefreshEvery = 30
		}
		if o.FastPath.TrackTTL <= 0 {
			o.FastPath.TrackTTL = 2 * time.Second
		}
		if o.FastPath.GateCost <= 0 {
			o.FastPath.GateCost = 100 * time.Microsecond
		}
	}
	if o.Sharding.Enabled {
		if o.Sharding.Shards <= 0 {
			o.Sharding.Shards = 4
		}
		if o.Sharding.Replication <= 0 {
			o.Sharding.Replication = 1
		}
		if o.Sharding.Quorum <= 0 || o.Sharding.Quorum > o.Sharding.Shards {
			o.Sharding.Quorum = o.Sharding.Shards
		}
		if o.Sharding.GatherOverhead <= 0 {
			o.Sharding.GatherOverhead = 200 * time.Microsecond
		}
		if o.Sharding.GatherTimeout <= 0 {
			o.Sharding.GatherTimeout = 20 * time.Millisecond
		}
	}
	return o
}

// Placement assigns each pipeline step a set of machine replicas, in
// order. Placement[wire.StepSIFT] = {E1, E2} deploys two sift replicas.
type Placement [wire.NumSteps][]*testbed.Machine

// PlaceAll returns a placement with every service on a single machine.
func PlaceAll(m *testbed.Machine) Placement {
	var p Placement
	for i := range p {
		p[i] = []*testbed.Machine{m}
	}
	return p
}

// PlaceOrdered returns a placement with one replica per step on the given
// machines, ordered [primary, sift, encoding, lsh, matching]. It panics
// unless exactly wire.NumSteps machines are given.
func PlaceOrdered(machines ...*testbed.Machine) Placement {
	if len(machines) != wire.NumSteps {
		panic(fmt.Sprintf("core: PlaceOrdered needs %d machines, got %d", wire.NumSteps, len(machines)))
	}
	var p Placement
	for i, m := range machines {
		p[i] = []*testbed.Machine{m}
	}
	return p
}

// Validate checks the placement covers every step.
func (pl Placement) Validate() error {
	for i, replicas := range pl {
		if len(replicas) == 0 {
			return fmt.Errorf("core: step %s has no replicas", wire.Step(i))
		}
		for _, m := range replicas {
			if m == nil {
				return fmt.Errorf("core: step %s has nil machine", wire.Step(i))
			}
		}
	}
	return nil
}

// simFrame is the unit of work in the simulated pipeline.
type simFrame struct {
	clientID uint32
	frameNo  uint64
	capture  sim.Time
	bytes    int
	sticky   *Instance // sift replica holding this frame's state (scAtteR)
	// hopRep is the route window of the replica this frame is currently
	// in flight to (WeightedRouting); the admission outcome resolves it.
	hopRep    *routestats.Replica
	hopSentAt sim.Time
	// fast marks a frame answered by the fast-path gate at primary; its
	// delivery must not bump the client's warm state.
	fast bool
}

// simTrack is the per-client warm state of the simulated fast path.
type simTrack struct {
	fulls    int // consecutive delivered full recognitions
	skips    int // frames skipped since the last full recognition
	lastFull sim.Time
}

type stateKey struct {
	client uint32
	frame  uint64
}

type stateEntry struct {
	bytes   int64
	timeout *sim.Event
}

type queuedFrame struct {
	fr *simFrame
	at sim.Time
}

// Instance is one deployed replica of a pipeline service.
type Instance struct {
	p       *Pipeline
	step    wire.Step
	replica int
	machine *testbed.Machine
	prof    ServiceProfile

	busy   bool
	queue  []queuedFrame
	states map[stateKey]*stateEntry

	cpuBusy  time.Duration
	gpuBusy  time.Duration
	stateMem int64

	// retired marks a replica removed by scale-in: it takes no new
	// frames (already out of the routing table) and frees its baseline
	// memory once drained (released).
	retired  bool
	released bool
}

// Name returns the service name (shared across replicas, as the paper's
// per-service figures aggregate replicas).
func (in *Instance) Name() string { return in.step.String() }

// Machine returns the hosting machine.
func (in *Instance) Machine() *testbed.Machine { return in.machine }

// QueueLen returns the sidecar queue length (scAtteR++).
func (in *Instance) QueueLen() int { return len(in.queue) }

// StateCount returns the number of held frame states (sift, scAtteR).
func (in *Instance) StateCount() int { return len(in.states) }

// Pipeline wires clients, service instances, and the network fabric into
// one simulated deployment.
type Pipeline struct {
	eng      *sim.Engine
	fabric   *Fabric
	col      *metrics.Collector
	opts     Options
	profiles Profiles
	tracer   *obs.Recorder

	instances [wire.NumSteps][]*Instance
	rr        [wire.NumSteps]int
	machines  []*testbed.Machine
	clients   int

	// admit holds the per-service admission verdicts pushed by an
	// application-aware controller (SetAdmitState); admissionDrops counts
	// the frames they refused, per step.
	admit          [wire.NumSteps]AdmitState
	admissionDrops [wire.NumSteps]uint64

	// routes mirrors the runtime's per-replica statistics windows on the
	// virtual clock (WeightedRouting); nil when routing is plain RR.
	routes *routestats.Table
	repOf  map[*Instance]*routestats.Replica

	// fastTracks is the per-client warm state of the simulated fast path;
	// nil when Options.FastPath is disabled.
	fastTracks map[uint32]*simTrack

	// shardSim counts the simulated scatter/gather activity at the lsh
	// step (Options.Sharding). The sim engine is single-threaded, so
	// plain fields suffice.
	shardSim struct {
		fanOuts     uint64
		gathers     uint64
		partials    uint64
		dropped     uint64
		belowQuorum uint64
		waitMicros  uint64
	}
}

// NewPipeline deploys the pipeline per the placement. It panics on
// invalid placement or profiles (experiment construction errors).
func NewPipeline(eng *sim.Engine, fabric *Fabric, col *metrics.Collector,
	placement Placement, profiles Profiles, opts Options) *Pipeline {
	if err := placement.Validate(); err != nil {
		panic(err)
	}
	if err := profiles.Validate(); err != nil {
		panic(err)
	}
	p := &Pipeline{
		eng:      eng,
		fabric:   fabric,
		col:      col,
		opts:     opts.withDefaults(),
		profiles: profiles,
	}
	seen := make(map[string]bool)
	for step := range placement {
		for r, m := range placement[step] {
			in := &Instance{
				p:       p,
				step:    wire.Step(step),
				replica: r,
				machine: m,
				prof:    profiles[step],
				states:  make(map[stateKey]*stateEntry),
			}
			// Reserve the instance's baseline memory for the whole run.
			if !m.AllocMem(in.prof.BaselineMem) {
				panic(fmt.Sprintf("core: machine %s cannot host %s baseline memory", m.Name(), in.Name()))
			}
			p.instances[step] = append(p.instances[step], in)
			if !seen[m.Name()] {
				seen[m.Name()] = true
				p.machines = append(p.machines, m)
			}
		}
	}
	if p.opts.FastPath.Enabled {
		p.fastTracks = make(map[uint32]*simTrack)
	}
	if p.opts.WeightedRouting {
		cfg := p.opts.RouteStats
		if cfg.Seed == 0 {
			cfg.Seed = uint64(eng.Rand().Int63())
		}
		cfg.Now = func() int64 { return int64(p.eng.Now()) }
		p.routes = routestats.New(cfg)
		p.repOf = make(map[*Instance]*routestats.Replica)
		for step := range p.instances {
			p.syncRoutes(wire.Step(step))
		}
	}
	return p
}

// routeAddr is the synthetic replica address the sim's route windows are
// keyed by — unique per (machine, replica slot) within a step.
func (in *Instance) routeAddr() string {
	return fmt.Sprintf("%s#%d", in.machine.Name(), in.replica)
}

// syncRoutes rebuilds the route window set of one step from the deployed
// replicas (windows of surviving replicas are preserved by address).
func (p *Pipeline) syncRoutes(step wire.Step) {
	if p.routes == nil {
		return
	}
	reps := p.instances[step]
	addrs := make([]string, len(reps))
	for i, in := range reps {
		addrs[i] = in.routeAddr()
	}
	p.routes.SetReplicas(step, addrs)
	for i, in := range reps {
		p.repOf[in] = p.routes.Find(step, addrs[i])
	}
}

// RouteDigests snapshots the per-replica routing windows, or nil when
// WeightedRouting is off.
func (p *Pipeline) RouteDigests() []routestats.RouteDigest {
	if p.routes == nil {
		return nil
	}
	return p.routes.Digest()
}

// Instances returns the replicas deployed for a step.
func (p *Pipeline) Instances(step wire.Step) []*Instance { return p.instances[step] }

// AddReplica deploys an additional replica of step on machine at the
// current virtual time — dynamic scale-out, the operation an
// application-aware orchestrator performs when sidecar analytics report
// distress. It returns an error when the machine cannot host the
// service's baseline memory.
func (p *Pipeline) AddReplica(step wire.Step, m *testbed.Machine) (*Instance, error) {
	if !step.Valid() || step == wire.StepDone {
		return nil, fmt.Errorf("core: cannot add replica for step %v", step)
	}
	prof := p.profiles[step]
	if !m.AllocMem(prof.BaselineMem) {
		return nil, fmt.Errorf("core: machine %s cannot host %s baseline memory", m.Name(), step)
	}
	in := &Instance{
		p:       p,
		step:    step,
		replica: len(p.instances[step]),
		machine: m,
		prof:    prof,
		states:  make(map[stateKey]*stateEntry),
	}
	p.instances[step] = append(p.instances[step], in)
	p.syncRoutes(step)
	known := false
	for _, existing := range p.machines {
		if existing == m {
			known = true
			break
		}
	}
	if !known {
		p.machines = append(p.machines, m)
	}
	return in, nil
}

// RemoveReplica retires the most recently added replica of step —
// dynamic scale-in, the inverse of AddReplica. The replica leaves the
// routing table immediately so no new frames reach it; frames already
// queued or in flight on it drain normally, and its baseline memory is
// released once it goes idle (immediately when it already is). Scaling a
// service below one replica is refused.
func (p *Pipeline) RemoveReplica(step wire.Step) error {
	if !step.Valid() || step == wire.StepDone {
		return fmt.Errorf("core: cannot remove replica for step %v", step)
	}
	reps := p.instances[step]
	if len(reps) <= 1 {
		return fmt.Errorf("core: %s has %d replica(s); cannot scale below one", step, len(reps))
	}
	in := reps[len(reps)-1]
	p.instances[step] = reps[:len(reps)-1]
	p.syncRoutes(step)
	if p.repOf != nil {
		delete(p.repOf, in)
	}
	in.retired = true
	in.maybeReleaseRetired()
	return nil
}

// maybeReleaseRetired frees a retired replica's baseline memory once it
// has fully drained (not busy, empty queue).
// Held sift states stay allocated until fetched or timed out — their
// release path already runs on the state lifecycle.
func (in *Instance) maybeReleaseRetired() {
	if !in.retired || in.released || in.busy || len(in.queue) > 0 {
		return
	}
	in.released = true
	in.machine.FreeMem(in.prof.BaselineMem)
}

// SetAdmitState installs a service's admission verdict — the sim mirror
// of the heartbeat-carried admit state the real sidecar enforces. It
// applies to frames arriving after this virtual instant.
func (p *Pipeline) SetAdmitState(step wire.Step, s AdmitState) {
	if !step.Valid() || step == wire.StepDone {
		return
	}
	p.admit[step] = s
}

// AdmitStateOf returns a service's current admission verdict.
func (p *Pipeline) AdmitStateOf(step wire.Step) AdmitState { return p.admit[step] }

// AdmissionDrops returns how many frames admission control refused at a
// step's ingress.
func (p *Pipeline) AdmissionDrops(step wire.Step) uint64 { return p.admissionDrops[step] }

// Options returns the effective options after defaulting.
func (p *Pipeline) Options() Options { return p.opts }

// SetTracer attaches a span recorder: every frame's passage through every
// service — both modes, all five stages, including drops — is recorded as
// an obs.Span. A nil recorder (the default) disables tracing with no
// overhead beyond a nil check, so benchmarks run untraced.
func (p *Pipeline) SetTracer(rec *obs.Recorder) { p.tracer = rec }

// Tracer returns the attached span recorder (nil when tracing is off).
func (p *Pipeline) Tracer() *obs.Recorder { return p.tracer }

// recordSpan emits one span for fr at this instance. enqueue/start/end
// are virtual times; for drops that never started processing, start and
// end coincide.
func (in *Instance) recordSpan(fr *simFrame, enqueue, start, end sim.Time, outcome obs.Outcome) {
	if in.p.tracer == nil {
		return
	}
	in.p.tracer.Record(obs.Span{
		Service:   in.Name(),
		Host:      in.machine.Name(),
		Step:      in.step,
		ClientID:  fr.clientID,
		FrameNo:   fr.frameNo,
		EnqueueAt: enqueue,
		StartAt:   start,
		EndAt:     end,
		Queue:     start - enqueue,
		Proc:      end - start,
		Outcome:   outcome,
	})
}

// route picks the replica that will serve the next request at a step:
// plain round-robin (Oakestra's semantic addressing), or — with
// WeightedRouting and warm windows — the runtime's power-of-two-choices
// over live replica weights. In scAtteR, frames balanced across sift
// replicas remain tied to the replica that processed them — downstream
// state fetches must go there (simFrame.sticky), which is why balancing
// cannot relieve the dependency loop.
func (p *Pipeline) route(step wire.Step, clientID uint32) *Instance {
	replicas := p.instances[step]
	if p.routes != nil && len(replicas) > 1 {
		if _, i, ok := p.routes.Pick(step); ok {
			return replicas[i]
		}
	}
	in := replicas[p.rr[step]%len(replicas)]
	p.rr[step]++
	return in
}

// send transits a frame from an endpoint to an instance, applying load-
// balancing overhead when the target step is replicated. Lost frames are
// terminal unless ReliableTransport retransmits them. With
// WeightedRouting the hop is charged to the target's route window: a
// terminal link loss resolves it as lost here, admission at the far end
// resolves it otherwise (routeOutcome).
func (p *Pipeline) send(from string, in *Instance, fr *simFrame) {
	var onLost func()
	if p.routes != nil {
		if rep := p.repOf[in]; rep != nil {
			rep.Begin()
			fr.hopRep = rep
			fr.hopSentAt = p.eng.Now()
			onLost = func() {
				fr.hopRep = nil
				rep.Outcome(0, false)
			}
		}
	}
	p.transit(p.fabric.Link(from, in.machine.Name()), fr.bytes, func() {
		p.arrive(in, fr)
	}, len(p.instances[in.step]) > 1, onLost)
}

// routeOutcome resolves a frame's in-flight hop against the target's
// route window — the sim's equivalent of the data plane's
// ack-on-admission: ok with the hop latency when the frame was admitted,
// lost when it was dropped at ingress.
func (p *Pipeline) routeOutcome(fr *simFrame, ok bool) {
	if fr.hopRep == nil {
		return
	}
	fr.hopRep.Outcome(time.Duration(p.eng.Now()-fr.hopSentAt), ok)
	fr.hopRep = nil
}

// transit moves bytes across a link and runs onArrive on delivery,
// applying the reliability policy. lb adds the load-balancing proxy
// overhead. onLost (may be nil) fires when the frame is terminally lost
// on the link.
func (p *Pipeline) transit(link *netem.Link, bytes int, onArrive func(), lb bool, onLost func()) {
	attempts := 1
	if p.opts.ReliableTransport {
		attempts += p.opts.Retries
	}
	var try func(left int)
	try = func(left int) {
		delay, dropped := link.Transit(bytes)
		if dropped {
			if left > 1 {
				// Loss detection costs roughly one RTT (ack timeout)
				// before the retransmission goes out.
				rto := link.Config().RTT + 10*time.Millisecond
				p.eng.After(rto, func() { try(left - 1) })
				return
			}
			p.col.FrameDropped(metrics.DropLoss)
			if onLost != nil {
				onLost()
			}
			return
		}
		if lb {
			delay += p.opts.LBOverhead
		}
		p.eng.After(delay, onArrive)
	}
	try(attempts)
}

// arrive is a frame hitting a service ingress. Admission resolves the
// hop's route window (WeightedRouting), mirroring the real data plane's
// ack-on-admission: a busy/overflow drop never acks, so it counts as a
// loss at the sender.
func (p *Pipeline) arrive(in *Instance, fr *simFrame) {
	p.col.ServiceArrived(in.Name(), p.eng.Now())
	// Admission control holds the door before either mode's queue/busy
	// check: reject turns every frame away, degrade decimates the ingress
	// to one frame in DegradeStride by frame number. Refused frames
	// resolve their hop as lost (no ack on the real data plane) and are
	// accounted as admission drops, not distress drops.
	if st := p.admit[in.step]; st != AdmitOK {
		if st == AdmitReject || fr.frameNo%DegradeStride != 0 {
			p.routeOutcome(fr, false)
			p.admissionDrops[in.step]++
			p.col.ServiceAdmissionDropped(in.Name())
			p.col.FrameDropped(metrics.DropAdmission)
			in.recordSpan(fr, p.eng.Now(), p.eng.Now(), p.eng.Now(), obs.OutcomeAdmission)
			return
		}
	}
	if p.opts.Mode == ModeScatter {
		if in.busy {
			// One frame at a time, no queue: outstanding requests at
			// busy services are dropped.
			p.routeOutcome(fr, false)
			p.col.ServiceDroppedAt(in.Name(), p.eng.Now())
			p.col.FrameDropped(metrics.DropBusy)
			in.recordSpan(fr, p.eng.Now(), p.eng.Now(), p.eng.Now(), obs.OutcomeBusy)
			return
		}
		p.routeOutcome(fr, true)
		in.busy = true
		in.start(fr, 0)
		return
	}
	// scAtteR++: sidecar queue.
	if len(in.queue) >= p.opts.QueueCap {
		p.routeOutcome(fr, false)
		p.col.ServiceDroppedAt(in.Name(), p.eng.Now())
		p.col.FrameDropped(metrics.DropOverflow)
		in.recordSpan(fr, p.eng.Now(), p.eng.Now(), p.eng.Now(), obs.OutcomeOverflow)
		return
	}
	p.routeOutcome(fr, true)
	in.queue = append(in.queue, queuedFrame{fr: fr, at: p.eng.Now()})
	in.kick()
}

// kick dispatches the sidecar queue: it filters frames that exceeded the
// latency threshold and, if idle, starts the oldest admissible frame.
func (in *Instance) kick() {
	if in.busy {
		return
	}
	p := in.p
	// The sidecar's timing threshold applies to how long the request
	// waited in this sidecar's queue: a frame that queued past the
	// latency budget is no longer worth processing.
	for len(in.queue) > 0 {
		q := in.queue[0]
		wait := p.eng.Now() - q.at
		if wait <= p.opts.Threshold {
			break
		}
		copy(in.queue, in.queue[1:])
		in.queue = in.queue[:len(in.queue)-1]
		p.col.ServiceDroppedAt(in.Name(), p.eng.Now())
		p.col.FrameDropped(metrics.DropThreshold)
		in.recordSpan(q.fr, q.at, p.eng.Now(), p.eng.Now(), obs.OutcomeThreshold)
	}
	if len(in.queue) == 0 {
		return
	}
	q := in.queue[0]
	copy(in.queue, in.queue[1:])
	in.queue = in.queue[:len(in.queue)-1]
	in.busy = true
	in.start(q.fr, p.eng.Now()-q.at)
}

// start runs the service's compute phases for one frame: the CPU phase
// (plus sidecar RPC overhead in scAtteR++), then the GPU phase if any,
// then step-specific completion.
func (in *Instance) start(fr *simFrame, queueWait time.Duration) {
	p := in.p
	began := p.eng.Now()
	// The tracker-gated fast path answers warm clients' frames at the
	// head of the pipeline for only the gate cost.
	if in.step == wire.StepPrimary && p.fastSkip(fr) {
		in.runGate(fr, queueWait, began)
		return
	}
	// scAtteR's matching first fetches the frame's state from sift.
	if in.step == wire.StepMatching && p.opts.Mode == ModeScatter {
		in.fetchThenProcess(fr, queueWait, began)
		return
	}
	in.runPhases(fr, queueWait, began)
}

// fastSkip decides whether fr can be answered from the client's warm
// track, mirroring FastPathGate.VerdictAppend: the track must be warm
// (WarmHits consecutive full recognitions), fresh (within TrackTTL), and
// not due for its RefreshEvery-th drift-bounding refresh.
func (p *Pipeline) fastSkip(fr *simFrame) bool {
	if p.fastTracks == nil {
		return false
	}
	t := p.fastTracks[fr.clientID]
	if t == nil {
		return false
	}
	fp := p.opts.FastPath
	if t.fulls > 0 && p.eng.Now()-t.lastFull > fp.TrackTTL {
		// Track loss: no result reached this client recently enough.
		t.fulls, t.skips = 0, 0
		return false
	}
	if t.fulls < fp.WarmHits || t.skips+1 >= fp.RefreshEvery {
		return false
	}
	t.skips++
	return true
}

// runGate is the fast-path service phase at primary: the frame pays only
// the gate lookup + verdict copy (plus the sidecar RPC in scAtteR++) and
// is delivered directly, never touching sift→matching.
func (in *Instance) runGate(fr *simFrame, queueWait time.Duration, began sim.Time) {
	p := in.p
	fr.fast = true
	cpu := in.machine.ComputeTime(p.opts.FastPath.GateCost, false)
	if p.opts.Mode == ModeScatterPP {
		cpu += p.opts.SidecarOverhead
	}
	in.machine.CPU.Acquire(func() {
		p.eng.After(cpu, func() {
			in.machine.CPU.Release()
			in.cpuBusy += cpu
			p.col.ServiceProcessed(in.Name(), queueWait, p.eng.Now()-began)
			p.col.FastPathSkipped()
			in.recordSpan(fr, began-queueWait, began, p.eng.Now(), obs.OutcomeOK)
			in.deliver(fr)
			in.idle()
		})
	})
}

// shardedCompute maps one lsh dispatch onto the scatter/gather cost
// model: per-shard compute is the monolithic cost over the shard count
// (candidate volume scales with partition size), every gather pays the
// fan-out/merge overhead, and a gather with missing shard legs waits out
// the gather window. It also advances the scatter/gather counters.
func (in *Instance) shardedCompute() time.Duration {
	p := in.p
	sh := p.opts.Sharding
	perShard := in.prof.CPUTime / time.Duration(sh.Shards)
	cpu := in.machine.ComputeTime(perShard, false) + sh.GatherOverhead
	misses := 0
	if sh.ShardLossProb > 0 {
		for s := 0; s < sh.Shards; s++ {
			if p.eng.Rand().Float64() < sh.ShardLossProb {
				misses++
			}
		}
	}
	p.shardSim.fanOuts += uint64(sh.Shards)
	if misses > 0 {
		p.shardSim.dropped += uint64(misses)
		cpu += sh.GatherTimeout
		if sh.Shards-misses >= sh.Quorum {
			p.shardSim.partials++
			p.shardSim.gathers++
		} else {
			// Below quorum the gather delivers no candidates; the frame
			// still flows, recognition just comes back empty — exactly
			// the runtime ShardGather contract.
			p.shardSim.belowQuorum++
		}
	} else {
		p.shardSim.gathers++
	}
	p.shardSim.waitMicros += uint64(cpu / time.Microsecond)
	return cpu
}

// shardedStep reports whether this dispatch goes through the simulated
// scatter/gather path.
func (in *Instance) shardedStep() bool {
	return in.p.opts.Sharding.Enabled && in.step == wire.StepLSH
}

// ShardDigest snapshots the simulated scatter/gather counters in the
// obs exposition shape; ok is false when sharding is disabled.
func (p *Pipeline) ShardDigest() (obs.ShardDigest, bool) {
	if !p.opts.Sharding.Enabled {
		return obs.ShardDigest{}, false
	}
	return obs.ShardDigest{
		Shards:           p.opts.Sharding.Shards,
		Replication:      p.opts.Sharding.Replication,
		FanOuts:          p.shardSim.fanOuts,
		Gathers:          p.shardSim.gathers,
		PartialGathers:   p.shardSim.partials,
		DroppedShards:    p.shardSim.dropped,
		BelowQuorum:      p.shardSim.belowQuorum,
		GatherWaitMicros: p.shardSim.waitMicros,
	}, true
}

func (in *Instance) runPhases(fr *simFrame, queueWait time.Duration, began sim.Time) {
	p := in.p
	cpu := in.machine.ComputeTime(in.prof.CPUTime, false)
	if in.shardedStep() {
		cpu = in.shardedCompute()
	}
	if p.opts.Mode == ModeScatterPP {
		cpu += p.opts.SidecarOverhead
	}
	in.machine.CPU.Acquire(func() {
		p.eng.After(cpu, func() {
			in.machine.CPU.Release()
			in.cpuBusy += cpu
			if !in.prof.UsesGPU() {
				in.finish(fr, queueWait, began)
				return
			}
			gpu := in.machine.ComputeTime(in.prof.GPUTime, true)
			in.machine.GPU.Acquire(func() {
				p.eng.After(gpu, func() {
					in.machine.GPU.Release()
					in.gpuBusy += gpu
					in.finish(fr, queueWait, began)
				})
			})
		})
	})
}

// finish records service metrics, forwards/delivers the frame, and frees
// the instance for the next request.
func (in *Instance) finish(fr *simFrame, queueWait time.Duration, began sim.Time) {
	p := in.p
	p.col.ServiceProcessed(in.Name(), queueWait, p.eng.Now()-began)
	in.recordSpan(fr, began-queueWait, began, p.eng.Now(), obs.OutcomeOK)
	switch in.step {
	case wire.StepSIFT:
		if p.opts.Mode == ModeScatter {
			in.storeState(fr)
		} else {
			// Stateless: descriptors and working state ride in the frame.
			fr.bytes = trace.FrameBytes(true)
		}
	case wire.StepMatching:
		in.deliver(fr)
		in.idle()
		return
	}
	next := p.route(in.step.Next(), fr.clientID)
	p.send(in.machine.Name(), next, fr)
	in.idle()
}

// idle releases the busy flag and, in scAtteR++, pulls the next queued
// frame.
func (in *Instance) idle() {
	in.busy = false
	if in.p.opts.Mode == ModeScatterPP {
		in.kick()
	}
	in.maybeReleaseRetired()
}

// deliver sends the processed frame back to its client. A full
// recognition completing here is the sim's equivalent of matching
// publishing into the gate: it bumps the client's warm state. Fast-path
// results never do.
func (in *Instance) deliver(fr *simFrame) {
	p := in.p
	if p.fastTracks != nil && !fr.fast {
		t := p.fastTracks[fr.clientID]
		if t == nil {
			t = &simTrack{}
			p.fastTracks[fr.clientID] = t
		}
		if t.fulls > 0 && p.eng.Now()-t.lastFull > p.opts.FastPath.TrackTTL {
			t.fulls = 0
		}
		t.fulls++
		t.skips = 0
		t.lastFull = p.eng.Now()
	}
	link := p.fabric.Link(in.machine.Name(), clientName(fr.clientID))
	capture := fr.capture
	clientID := fr.clientID
	p.transit(link, p.opts.ResultBytes, func() {
		p.col.FrameDelivered(clientID, capture, p.eng.Now())
	}, false, nil)
}

// storeState retains the frame's extracted features in sift's memory
// until matching fetches them or the retention timeout fires. A failed
// allocation (memory-constrained host) leaves no state, so matching will
// later miss.
func (in *Instance) storeState(fr *simFrame) {
	p := in.p
	fr.sticky = in
	key := stateKey{client: fr.clientID, frame: fr.frameNo}
	if !in.machine.AllocMem(in.prof.StateBytes) {
		p.col.StateAllocFailed()
		return
	}
	entry := &stateEntry{bytes: in.prof.StateBytes}
	entry.timeout = p.eng.After(p.opts.StateTimeout, func() {
		if _, ok := in.states[key]; ok {
			delete(in.states, key)
			in.stateMem -= entry.bytes
			in.machine.FreeMem(entry.bytes)
		}
	})
	in.states[key] = entry
	in.stateMem += entry.bytes
}

// takeState removes and returns whether the state for key was present,
// releasing its memory.
func (in *Instance) takeState(key stateKey) bool {
	entry, ok := in.states[key]
	if !ok {
		return false
	}
	entry.timeout.Cancel()
	delete(in.states, key)
	in.stateMem -= entry.bytes
	in.machine.FreeMem(entry.bytes)
	return true
}

// fetchBytes is the size of a state-fetch request/response header; the
// bulky state itself counts toward the response.
const fetchBytes = 1 << 10

// fetchThenProcess implements scAtteR's dependency loop: matching blocks
// on a state fetch to the sift replica holding the frame's state, holding
// its own busy flag (and thus dropping its ingress) until the response or
// a timeout.
func (in *Instance) fetchThenProcess(fr *simFrame, queueWait time.Duration, began sim.Time) {
	p := in.p
	sift := fr.sticky
	if sift == nil {
		// No sift state was ever recorded (should not happen in well-
		// formed deployments); treat as an immediate miss.
		p.col.FrameDropped(metrics.DropTimeout)
		in.recordSpan(fr, began-queueWait, began, p.eng.Now(), obs.OutcomeTimeout)
		in.idle()
		return
	}
	done := false
	timeout := p.eng.After(p.opts.FetchTimeout, func() {
		done = true
		p.col.FrameDropped(metrics.DropTimeout)
		in.recordSpan(fr, began-queueWait, began, p.eng.Now(), obs.OutcomeTimeout)
		in.idle()
	})
	key := stateKey{client: fr.clientID, frame: fr.frameNo}
	respond := func(hit bool) {
		respLink := p.fabric.Link(sift.machine.Name(), in.machine.Name())
		respSize := fetchBytes
		if hit {
			respSize = int(sift.prof.StateBytes / 64) // compacted on-wire state
		}
		delay, lost := respLink.Transit(respSize)
		if lost {
			return // matching's timeout will fire
		}
		p.eng.After(delay, func() {
			if done {
				return // response arrived after the timeout
			}
			done = true
			timeout.Cancel()
			if !hit {
				p.col.FrameDropped(metrics.DropTimeout)
				in.recordSpan(fr, began-queueWait, began, p.eng.Now(), obs.OutcomeTimeout)
				in.idle()
				return
			}
			in.runPhases(fr, queueWait, began)
		})
	}
	// The fetch request transits to sift and lands on its ingress: it is
	// dropped if sift is busy (the 2× load the paper identifies).
	reqLink := p.fabric.Link(in.machine.Name(), sift.machine.Name())
	delay, lost := reqLink.Transit(fetchBytes)
	if lost {
		return // timeout will fire
	}
	p.eng.After(delay, func() {
		p.col.ServiceArrived(sift.Name(), p.eng.Now())
		if sift.busy {
			p.col.ServiceDroppedAt(sift.Name(), p.eng.Now())
			return // fetch dropped; matching times out
		}
		sift.busy = true
		serve := sift.machine.ComputeTime(sift.prof.FetchServe, false)
		sift.machine.CPU.Acquire(func() {
			p.eng.After(serve, func() {
				sift.machine.CPU.Release()
				sift.cpuBusy += serve
				hit := sift.takeState(key)
				sift.idle()
				respond(hit)
			})
		})
	})
}

func clientName(id uint32) string { return fmt.Sprintf("client-%d", id) }

// ClientConfig describes one simulated client replaying the clip.
type ClientConfig struct {
	ID    uint32
	FPS   int      // default 30
	Start sim.Time // first frame emission
	Stop  sim.Time // emission stops at this time (exclusive)
	// EmitJitter perturbs each frame emission by ±EmitJitter (uniform),
	// modelling camera clock wobble — without it, clients at identical
	// frame rates phase-lock and collision patterns become degenerate.
	// Defaults to 2 ms; negative disables.
	EmitJitter time.Duration
}

// AddClient schedules a client's frame emissions.
func (p *Pipeline) AddClient(cfg ClientConfig) {
	if cfg.FPS <= 0 {
		cfg.FPS = 30
	}
	if cfg.Stop <= cfg.Start {
		panic("core: client Stop must be after Start")
	}
	if cfg.EmitJitter == 0 {
		cfg.EmitJitter = 2 * time.Millisecond
	} else if cfg.EmitJitter < 0 {
		cfg.EmitJitter = 0
	}
	p.clients++
	interval := time.Second / time.Duration(cfg.FPS)
	var frameNo uint64
	var emit func()
	emit = func() {
		if p.eng.Now() >= cfg.Stop {
			return
		}
		frameNo++
		p.col.FrameSent()
		fr := &simFrame{
			clientID: cfg.ID,
			frameNo:  frameNo,
			capture:  p.eng.Now(),
			bytes:    trace.FrameBytes(false),
		}
		in := p.route(wire.StepPrimary, cfg.ID)
		p.send(clientName(cfg.ID), in, fr)
		next := interval
		if cfg.EmitJitter > 0 {
			next += time.Duration(p.eng.Rand().Int63n(int64(2*cfg.EmitJitter))) - cfg.EmitJitter
		}
		p.eng.After(next, emit)
	}
	p.eng.At(cfg.Start, emit)
}

// Clients returns the number of clients added.
func (p *Pipeline) Clients() int { return p.clients }

// ServiceUsage is the per-service resource view of a run: resident memory
// (baseline + held state across replicas) and CPU/GPU utilization
// normalized against the total capacity of the deployed machines, as the
// paper normalizes.
type ServiceUsage struct {
	MemBytes int64
	CPUPct   float64
	GPUPct   float64
}

// Usage computes per-service resource usage over the run so far and the
// per-machine utilization snapshots.
func (p *Pipeline) Usage() (map[string]ServiceUsage, []metrics.MachineUsage) {
	duration := p.eng.Now()
	var totalCores, totalGPUs int
	for _, m := range p.machines {
		totalCores += m.Config().CPUCores
		totalGPUs += m.Config().GPUs
	}
	services := make(map[string]ServiceUsage, wire.NumSteps)
	for step := range p.instances {
		var u ServiceUsage
		for _, in := range p.instances[step] {
			u.MemBytes += in.prof.BaselineMem + in.stateMem
			if duration > 0 {
				if totalCores > 0 {
					u.CPUPct += float64(in.cpuBusy) / float64(time.Duration(totalCores)*duration)
				}
				if totalGPUs > 0 {
					u.GPUPct += float64(in.gpuBusy) / float64(time.Duration(totalGPUs)*duration)
				}
			}
		}
		services[wire.Step(step).String()] = u
	}
	machines := make([]metrics.MachineUsage, 0, len(p.machines))
	for _, m := range p.machines {
		machines = append(machines, metrics.MachineUsage{
			Machine:  m.Name(),
			CPUUtil:  m.CPU.Utilization(),
			GPUUtil:  m.GPU.Utilization(),
			MemBytes: m.MemUsed(),
			MemPeak:  m.MemPeak(),
			CPUBusy:  m.CPU.BusyIntegral(),
			GPUBusy:  m.GPU.BusyIntegral(),
			CPUSlots: m.Config().CPUCores,
			GPUSlots: m.Config().GPUs,
		})
	}
	return services, machines
}
