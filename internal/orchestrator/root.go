package orchestrator

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/obs/routestats"
)

// Hooks notify the runtime about instance lifecycle transitions so it can
// actually start/stop workers (node agents in real deployments, simulated
// instances in the testbed). Hooks may be nil.
type Hooks struct {
	// OnSchedule fires when an instance is placed on a node.
	OnSchedule func(Instance)
	// OnRemove fires when an instance is torn down (undeploy or node
	// failure).
	OnRemove func(Instance)
}

// Root is the root orchestrator: the control plane every node registers
// with. It is safe for concurrent use.
type Root struct {
	mu       sync.Mutex
	nodes    map[string]*node
	deployed map[string]*appState // app -> state
	hooks    Hooks
	// HeartbeatTimeout marks nodes dead when exceeded (default 3 s).
	heartbeatTimeout time.Duration
	// admissions holds the admission verdicts the control loop pushes to
	// sidecars on heartbeat responses (service -> verdict).
	admissions map[string]ServiceAdmission
}

type appState struct {
	sla       SLA
	instances map[string]*Instance // key -> instance
}

// Option configures a Root.
type Option func(*Root)

// WithHooks installs lifecycle hooks.
func WithHooks(h Hooks) Option { return func(r *Root) { r.hooks = h } }

// WithHeartbeatTimeout overrides the failure-detection window.
func WithHeartbeatTimeout(d time.Duration) Option {
	return func(r *Root) { r.heartbeatTimeout = d }
}

// NewRoot creates a root orchestrator.
func NewRoot(opts ...Option) *Root {
	r := &Root{
		nodes:            make(map[string]*node),
		deployed:         make(map[string]*appState),
		heartbeatTimeout: 3 * time.Second,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Errors returned by Root operations.
var (
	ErrDuplicateNode = errors.New("orchestrator: duplicate node")
	ErrUnknownNode   = errors.New("orchestrator: unknown node")
	ErrDuplicateApp  = errors.New("orchestrator: app already deployed")
	ErrUnknownApp    = errors.New("orchestrator: unknown app")
)

// RegisterNode adds a worker node (in Oakestra, nodes register with the
// root dynamically through their cluster orchestrator).
func (r *Root) RegisterNode(info NodeInfo, now time.Time) error {
	if err := info.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[info.Name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, info.Name)
	}
	n := &node{info: info, alive: true, status: NodeStatus{LastHeartbeat: now}}
	r.nodes[info.Name] = n
	return nil
}

// Nodes returns the registered node infos, sorted by name.
func (r *Root) Nodes() []NodeInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeInfo, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, n.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// candidatesLocked returns scheduling candidates in deterministic order.
func (r *Root) candidatesLocked() []*node {
	names := make([]string, 0, len(r.nodes))
	for name := range r.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*node, 0, len(names))
	for _, name := range names {
		out = append(out, r.nodes[name])
	}
	return out
}

// Deploy schedules every microservice of the SLA, fires OnSchedule hooks,
// and returns the deployment. Scheduling is all-or-nothing: on failure no
// instance is retained.
func (r *Root) Deploy(sla SLA) (*Deployment, error) {
	if err := sla.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, ok := r.deployed[sla.AppName]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDuplicateApp, sla.AppName)
	}
	candidates := r.candidatesLocked()
	state := &appState{
		sla:       sla,
		instances: make(map[string]*Instance),
	}
	var placed []Instance
	var reservations []func() // rollbacks
	fail := func(err error) (*Deployment, error) {
		for _, undo := range reservations {
			undo()
		}
		r.mu.Unlock()
		return nil, err
	}
	for _, svc := range sla.Microservices {
		nodes, err := place(svc, candidates)
		if err != nil {
			return fail(err)
		}
		for replica, n := range nodes {
			// The Root commits all bookkeeping; Place is pure.
			mem := svc.Requirements.MemBytes
			n.instances++
			n.reservedMem += mem
			n := n
			reservations = append(reservations, func() {
				n.instances--
				n.reservedMem -= mem
			})
			inst := Instance{
				App:     sla.AppName,
				Service: svc.Name,
				Replica: replica,
				Node:    n.info.Name,
				State:   StateRunning,
			}
			placed = append(placed, inst)
		}
	}
	for i := range placed {
		inst := placed[i]
		state.instances[inst.Key()] = &placed[i]
	}
	r.deployed[sla.AppName] = state
	r.mu.Unlock()

	if r.hooks.OnSchedule != nil {
		for _, inst := range placed {
			r.hooks.OnSchedule(inst)
		}
	}
	return &Deployment{App: sla.AppName, Instances: placed}, nil
}

// Undeploy tears down an application, firing OnRemove for each instance.
func (r *Root) Undeploy(app string) error {
	r.mu.Lock()
	state, ok := r.deployed[app]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownApp, app)
	}
	delete(r.deployed, app)
	var removed []Instance
	for _, inst := range state.instances {
		removed = append(removed, *inst)
		if inst.State == StateFailed {
			// A failed migration already released the dead node's
			// reservation in DetectFailures and never acquired a new one;
			// releasing again would leak capacity to other apps.
			continue
		}
		if n, ok := r.nodes[inst.Node]; ok {
			n.instances--
			n.reservedMem -= r.memOfLocked(state.sla, inst.Service)
		}
	}
	r.mu.Unlock()
	if r.hooks.OnRemove != nil {
		sort.Slice(removed, func(i, j int) bool { return removed[i].Key() < removed[j].Key() })
		for _, inst := range removed {
			r.hooks.OnRemove(inst)
		}
	}
	return nil
}

func (r *Root) memOfLocked(sla SLA, service string) int64 {
	for _, ms := range sla.Microservices {
		if ms.Name == service {
			return ms.Requirements.MemBytes
		}
	}
	return 0
}

// Heartbeat ingests a node's telemetry report.
func (r *Root) Heartbeat(nodeName string, status NodeStatus) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[nodeName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	n.status = status
	n.alive = true
	return nil
}

// Status returns the last known hardware telemetry of a node.
func (r *Root) Status(nodeName string) (NodeStatus, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[nodeName]
	if !ok {
		return NodeStatus{}, fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	return n.status, nil
}

// AppTelemetry aggregates the application digests from the latest
// heartbeats of all live nodes into one per-service view: counters are
// summed, drop ratios recomputed from the sums, queue depths summed, and
// p95 taken as the worst replica (the replica a QoS policy must relieve).
// Per-replica route windows (NodeStatus.Routes) merge across observing
// nodes into ServiceTelemetry.Replicas — outcome counters sum, latency
// and state take the worst report, weight the most pessimistic — so the
// root can tell one sick replica from a sick service. Services are
// returned sorted by name. Nodes that only report hardware telemetry
// contribute nothing — the pre-extension status quo.
func (r *Root) AppTelemetry() []ServiceTelemetry {
	r.mu.Lock()
	defer r.mu.Unlock()
	agg := make(map[string]*ServiceTelemetry)
	service := func(name string) *ServiceTelemetry {
		t, ok := agg[name]
		if !ok {
			t = &ServiceTelemetry{Service: name}
			agg[name] = t
		}
		return t
	}
	type replicaKey struct{ service, replica string }
	routes := make(map[replicaKey]*ReplicaTelemetry)
	for _, n := range r.nodes {
		if !n.alive {
			continue
		}
		for _, st := range n.status.Services {
			t := service(st.Service)
			t.Arrived += st.Arrived
			t.Processed += st.Processed
			t.Dropped += st.Dropped
			t.AdmissionDrops += st.AdmissionDrops
			t.QueueLen += st.QueueLen
			if st.P95Micros > t.P95Micros {
				t.P95Micros = st.P95Micros
			}
			if st.P99Micros > t.P99Micros {
				t.P99Micros = st.P99Micros
			}
		}
		for _, rt := range n.status.Routes {
			k := replicaKey{rt.Service, rt.Replica}
			m, ok := routes[k]
			if !ok {
				m = &ReplicaTelemetry{Service: rt.Service, Replica: rt.Replica,
					State: rt.State, Weight: rt.Weight}
				routes[k] = m
			} else {
				if routestats.ParseState(rt.State).Rank() > routestats.ParseState(m.State).Rank() {
					m.State = rt.State
				}
				if rt.Weight < m.Weight {
					m.Weight = rt.Weight
				}
			}
			m.Sent += rt.Sent
			m.Acked += rt.Acked
			m.Lost += rt.Lost
			m.SendErrors += rt.SendErrors
			if rt.LatencyMicros > m.LatencyMicros {
				m.LatencyMicros = rt.LatencyMicros
			}
			m.Observers++
		}
	}
	for _, m := range routes {
		if m.Sent > 0 {
			m.LossRatio = float64(m.Lost+m.SendErrors) / float64(m.Sent)
		}
		t := service(m.Service)
		t.Replicas = append(t.Replicas, *m)
	}
	out := make([]ServiceTelemetry, 0, len(agg))
	for _, t := range agg {
		if t.Arrived > 0 {
			t.DropRatio = float64(t.Dropped) / float64(t.Arrived)
		}
		sort.Slice(t.Replicas, func(i, j int) bool {
			return t.Replicas[i].Replica < t.Replicas[j].Replica
		})
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Service < out[j].Service })
	return out
}

// NodeCounts reports how many registered nodes are currently considered
// alive and dead.
func (r *Root) NodeCounts() (alive, dead int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		if n.alive {
			alive++
		} else {
			dead++
		}
	}
	return alive, dead
}

// Deployment returns the current instances of an app.
func (r *Root) Deployment(app string) (*Deployment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	state, ok := r.deployed[app]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownApp, app)
	}
	d := &Deployment{App: app}
	for _, inst := range state.instances {
		d.Instances = append(d.Instances, *inst)
	}
	sort.Slice(d.Instances, func(i, j int) bool { return d.Instances[i].Key() < d.Instances[j].Key() })
	return d, nil
}

// DetectFailures marks nodes whose heartbeat is older than the timeout as
// dead and re-schedules their instances elsewhere (Oakestra's automatic
// service recovery). It returns the migrated instances (new placements).
func (r *Root) DetectFailures(now time.Time) []Instance {
	r.mu.Lock()
	var dead []*node
	for _, n := range r.nodes {
		if n.alive && now.Sub(n.status.LastHeartbeat) > r.heartbeatTimeout {
			n.alive = false
			dead = append(dead, n)
		}
	}
	if len(dead) == 0 {
		r.mu.Unlock()
		return nil
	}
	deadNames := make(map[string]bool, len(dead))
	for _, n := range dead {
		deadNames[n.info.Name] = true
	}
	type migration struct {
		old  Instance
		inst *Instance
		svc  ServiceSLA
	}
	var migrations []migration
	// Deterministic app order.
	apps := make([]string, 0, len(r.deployed))
	for app := range r.deployed {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		state := r.deployed[app]
		keys := make([]string, 0, len(state.instances))
		for k := range state.instances {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			inst := state.instances[k]
			if !deadNames[inst.Node] {
				continue
			}
			var svc ServiceSLA
			for _, ms := range state.sla.Microservices {
				if ms.Name == inst.Service {
					svc = ms
					break
				}
			}
			migrations = append(migrations, migration{old: *inst, inst: inst, svc: svc})
		}
	}
	candidates := r.candidatesLocked()
	var migrated []Instance
	var removedOld []Instance
	for _, m := range migrations {
		// Release the dead node's bookkeeping.
		if n, ok := r.nodes[m.old.Node]; ok {
			n.instances--
			n.reservedMem -= m.svc.Requirements.MemBytes
		}
		one := m.svc
		one.Replicas = 1
		nodes, err := place(one, candidates)
		if err != nil {
			m.inst.State = StateFailed
			continue
		}
		n := nodes[0]
		// Commit the full reservation on the target. Incrementing only the
		// instance count here (the old bug) made migrated services invisible
		// to memory feasibility, so repeated failovers could overcommit a
		// node far past its capacity.
		n.instances++
		n.reservedMem += m.svc.Requirements.MemBytes
		m.inst.Node = n.info.Name
		m.inst.State = StateRunning
		removedOld = append(removedOld, m.old)
		migrated = append(migrated, *m.inst)
	}
	r.mu.Unlock()
	if r.hooks.OnRemove != nil {
		for _, inst := range removedOld {
			r.hooks.OnRemove(inst)
		}
	}
	if r.hooks.OnSchedule != nil {
		for _, inst := range migrated {
			r.hooks.OnSchedule(inst)
		}
	}
	return migrated
}
