package agent

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/wire"
)

// DeployerConfig configures a Deployer.
type DeployerConfig struct {
	// Mode is the pipeline semantics every started worker runs with.
	Mode core.Mode
	// Network is the inter-service transport ("udp" default, "tcp").
	Network string
	// Router is the routing table the Deployer keeps in sync with the
	// live placement. Workers it starts forward through this router.
	// A *StaticRouter gives the deterministic round-robin; a
	// *StatsRouter adds stats-driven replica selection.
	Router RouteUpdater
	// NewProcessor builds a fresh processor each time an instance of the
	// step is scheduled (processors are not shared across restarts).
	NewProcessor func(step wire.Step) core.Processor
	// ListenAddr is the bind address pattern for started workers
	// (default "127.0.0.1:0" — ephemeral loopback ports).
	ListenAddr string
	// Configure, when set, tweaks each WorkerConfig before StartWorker
	// (thresholds, observability, endpoint wrapping for fault injection).
	Configure func(*WorkerConfig)
	// Log defaults to slog.Default().
	Log *slog.Logger
}

// Deployer bridges the orchestrator control plane to the real runtime:
// its Hooks start a worker when the scheduler places an instance, stop
// it when the instance is removed, and after every change push the
// current live placement into the Router — so DetectFailures migrations
// become route updates frames actually follow, not just bookkeeping.
type Deployer struct {
	cfg DeployerConfig

	mu      sync.Mutex
	workers map[string]*Worker // instance key -> running worker
	steps   map[string]wire.Step
	nodes   map[string]string // instance key -> node name
	closed  bool
}

// NewDeployer validates the configuration and returns a Deployer.
func NewDeployer(cfg DeployerConfig) (*Deployer, error) {
	if cfg.Router == nil {
		return nil, errors.New("agent: deployer needs a router")
	}
	if cfg.NewProcessor == nil {
		return nil, errors.New("agent: deployer needs a processor factory")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	return &Deployer{
		cfg:     cfg,
		workers: make(map[string]*Worker),
		steps:   make(map[string]wire.Step),
		nodes:   make(map[string]string),
	}, nil
}

// Hooks returns the lifecycle hooks to install on the Root
// (orchestrator.WithHooks).
func (d *Deployer) Hooks() orchestrator.Hooks {
	return orchestrator.Hooks{
		OnSchedule: d.onSchedule,
		OnRemove:   d.onRemove,
	}
}

func (d *Deployer) onSchedule(inst orchestrator.Instance) {
	step, err := wire.ParseStep(inst.Service)
	if err != nil {
		d.cfg.Log.Error("deployer: unknown service scheduled", "service", inst.Service)
		return
	}
	wc := WorkerConfig{
		Step:       step,
		Mode:       d.cfg.Mode,
		Processor:  d.cfg.NewProcessor(step),
		ListenAddr: d.cfg.ListenAddr,
		Router:     d.cfg.Router,
		Network:    d.cfg.Network,
		Host:       inst.Node,
		Log:        d.cfg.Log,
	}
	if d.cfg.Configure != nil {
		d.cfg.Configure(&wc)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if old, ok := d.workers[inst.Key()]; ok {
		// The slot is being rescheduled; tear down any stale worker first.
		old.Close()
	}
	w, err := StartWorker(wc)
	if err != nil {
		d.cfg.Log.Error("deployer: start worker", "instance", inst.Key(), "err", err)
		delete(d.workers, inst.Key())
		delete(d.steps, inst.Key())
		delete(d.nodes, inst.Key())
		d.syncRoutesLocked()
		return
	}
	d.workers[inst.Key()] = w
	d.steps[inst.Key()] = step
	d.nodes[inst.Key()] = inst.Node
	d.syncRoutesLocked()
	d.cfg.Log.Info("deployer: worker up", "instance", inst.Key(), "node", inst.Node, "addr", w.Addr())
}

func (d *Deployer) onRemove(inst orchestrator.Instance) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[inst.Key()]
	if !ok {
		return
	}
	delete(d.workers, inst.Key())
	delete(d.steps, inst.Key())
	delete(d.nodes, inst.Key())
	w.Close()
	d.syncRoutesLocked()
	d.cfg.Log.Info("deployer: worker removed", "instance", inst.Key())
}

// syncRoutesLocked rebuilds the router table from the live workers.
// Replica order is deterministic (sorted instance keys) so round-robin
// rotation is reproducible.
func (d *Deployer) syncRoutesLocked() {
	keys := make([]string, 0, len(d.workers))
	for k := range d.workers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	table := make(map[wire.Step][]string)
	for _, k := range keys {
		step := d.steps[k]
		table[step] = append(table[step], d.workers[k].Addr())
	}
	d.cfg.Router.SetRoutes(table)
}

// Kill abruptly closes every worker on the named node WITHOUT updating
// routes — simulating a machine crash: peers keep sending to the dead
// addresses until the control loop detects the failure, migrates the
// instances, and the hooks repair the table. Returns how many workers
// it killed.
func (d *Deployer) Kill(node string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for k, w := range d.workers {
		if d.nodes[k] != node {
			continue
		}
		w.Close()
		delete(d.workers, k)
		delete(d.steps, k)
		delete(d.nodes, k)
		n++
	}
	return n
}

// Stats sums worker counters per service across live instances.
func (d *Deployer) Stats() map[string]WorkerStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]WorkerStats)
	for k, w := range d.workers {
		st := w.Stats()
		agg := out[d.steps[k].String()]
		agg.Received += st.Received
		agg.Processed += st.Processed
		agg.DroppedBusy += st.DroppedBusy
		agg.DroppedQueue += st.DroppedQueue
		agg.DroppedThreshold += st.DroppedThreshold
		agg.DroppedShutdown += st.DroppedShutdown
		agg.DroppedAdmission += st.DroppedAdmission
		agg.Errors += st.Errors
		agg.ForwardRetries += st.ForwardRetries
		agg.QueueMicros += st.QueueMicros
		agg.ProcMicros += st.ProcMicros
		out[d.steps[k].String()] = agg
	}
	return out
}

// Close stops every worker and empties the routes.
func (d *Deployer) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var firstErr error
	for k, w := range d.workers {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("agent: close %s: %w", k, err)
		}
	}
	d.workers = make(map[string]*Worker)
	d.steps = make(map[string]wire.Step)
	d.nodes = make(map[string]string)
	d.syncRoutesLocked()
	return firstErr
}
