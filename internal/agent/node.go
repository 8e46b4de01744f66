package agent

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/obs/routestats"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

// NodeConfig describes the services one machine hosts: the deployment
// document cmd/scatter-node reads from a JSON file (samples under
// deploy/), and StartNode wires. Split deployments run one node per
// machine with routes across hosts, as the paper pins services to E1/E2.
//
//	{
//	  "mode": "scatter++", "analysis_width": 320, "analysis_height": 180, "train_seed": 7,
//	  "services": [
//	    {"step": "primary", "listen": "127.0.0.1:7001"},
//	    {"step": "sift", "listen": "127.0.0.1:7002", "state_rpc": "127.0.0.1:7102"},
//	    {"step": "encoding", "listen": "127.0.0.1:7003"},
//	    {"step": "lsh", "listen": "127.0.0.1:7004"},
//	    {"step": "matching", "listen": "127.0.0.1:7005", "sift_rpc": "127.0.0.1:7102"}
//	  ],
//	  "routes": {"encoding": ["127.0.0.1:7003", "e2.example.lan:7003"]},
//	  "obs_listen": "127.0.0.1:9100", "trace_spans": true, "route_stats": {"enabled": true},
//	  "fast_path": {"enabled": true, "refresh_every": 30, "min_confidence": 0.5},
//	  "fault": {"packet_loss": 0.01, "delay_ms": 5, "seed": 42}
//	}
type NodeConfig struct {
	Mode           string        `json:"mode"`            // "scatter" (default) or "scatter++"
	Network        string        `json:"network"`         // "udp" (default) or "tcp"
	AnalysisWidth  int           `json:"analysis_width"`  // default 320
	AnalysisHeight int           `json:"analysis_height"` // default 180
	TrainSeed      int64         `json:"train_seed"`      // default 7
	Services       []ServiceSpec `json:"services"`
	// Routes maps a step to its replica addresses. A step this node hosts
	// and Routes leaves out goes to its own workers' bound addresses, so
	// a "127.0.0.1:0" listen needs no route.
	Routes map[string][]string `json:"routes"`
	// Orchestrator is the root URL this node registers with (as Node, or
	// the hostname) and heartbeats to.
	Orchestrator string                 `json:"orchestrator,omitempty"`
	Node         *orchestrator.NodeInfo `json:"node,omitempty"`
	// ObsListen serves /metrics, /metrics.json, /healthz, /routes,
	// /routes.json, /debug/vars and /debug/pprof.
	ObsListen  string `json:"obs_listen,omitempty"`
	TraceSpans bool   `json:"trace_spans,omitempty"` // per-service spans ride each frame
	// Fault injects loss, delay, jitter and duplication on every outbound
	// message (DESIGN §4b); RouteStats swaps round-robin for stats-driven
	// replica selection (§4c); FastPath arms the tracker-gated fast path
	// (§5d) and needs primary and matching on this node.
	Fault      *FaultSpec      `json:"fault,omitempty"`
	RouteStats *RouteStatsSpec `json:"route_stats,omitempty"`
	FastPath   *FastPathSpec   `json:"fast_path,omitempty"`
}

// ServiceSpec is one service a node hosts. In stateful mode ("scatter")
// matching fetches sift's state from SiftRPC, or else from this node's
// own sift, whose StateRPC then defaults to an ephemeral loopback port.
type ServiceSpec struct {
	Step     string `json:"step"`
	Listen   string `json:"listen"`
	StateRPC string `json:"state_rpc,omitempty"`
	SiftRPC  string `json:"sift_rpc,omitempty"`
}

// FaultSpec configures outbound fault injection for every worker on a
// node. All fields are optional; the zero value injects nothing.
type FaultSpec struct {
	Drop       float64 `json:"drop,omitempty"`        // per-message drop probability
	PacketLoss float64 `json:"packet_loss,omitempty"` // per-1500B-fragment loss
	DelayMs    int     `json:"delay_ms,omitempty"`
	JitterMs   int     `json:"jitter_ms,omitempty"`
	Duplicate  float64 `json:"duplicate,omitempty"`
	Seed       int64   `json:"seed,omitempty"` // fault pattern seed (default 1)
}

// FastPathSpec arms the tracker-gated recognition fast path; zero fields
// take the core.FastPathConfig defaults. min_hits and tracker_idle_timeout_ms
// apply to matching whenever the block is present, even disabled.
type FastPathSpec struct {
	Enabled              bool    `json:"enabled"`
	MinConfidence        float64 `json:"min_confidence,omitempty"`
	RefreshEvery         int     `json:"refresh_every,omitempty"`
	SkipDecay            float64 `json:"skip_decay,omitempty"`
	MinHits              int     `json:"min_hits,omitempty"`
	TrackerIdleTimeoutMs int     `json:"tracker_idle_timeout_ms,omitempty"`
}

// RouteStatsSpec arms stats-driven routing with the routestats defaults.
type RouteStatsSpec struct {
	Enabled bool `json:"enabled"`
}

// ParseNodeConfig decodes a node deployment document and fills its
// defaults. Keys it does not know are an error, so a stale or misspelt
// setting fails at start with the key named instead of silently doing
// nothing.
func ParseNodeConfig(data []byte) (NodeConfig, error) {
	var cfg NodeConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return NodeConfig{}, err
	}
	if dec.More() {
		return NodeConfig{}, errors.New("trailing data after the config document")
	}
	if cfg.AnalysisWidth <= 0 {
		cfg.AnalysisWidth = 320
	}
	if cfg.AnalysisHeight <= 0 {
		cfg.AnalysisHeight = 180
	}
	if cfg.TrainSeed == 0 {
		cfg.TrainSeed = 7
	}
	return cfg, nil
}

// Node is one machine's running services: its workers, the obs registry
// they feed, and the telemetry, heartbeat and stats loops around them.
type Node struct {
	workers []*Worker
	reg     *obs.Registry
	obsSrv  *http.Server
	obsAddr string
	// stop ends in-flight state fetches, the heartbeats and the stats log;
	// loops waits for the stats log to return.
	stop  context.CancelFunc
	loops sync.WaitGroup
}

// StartNode starts the services cfg lists over the trained model m, in
// pipeline order, and everything the config arms around them. On error
// nothing it started is left running.
func StartNode(cfg NodeConfig, m *core.Model) (*Node, error) {
	mode := core.ModeScatter
	switch strings.ToLower(cfg.Mode) {
	case "", "scatter":
	case "scatter++", "scatterpp":
		mode = core.ModeScatterPP
	default:
		return nil, fmt.Errorf("agent: unknown mode %q", cfg.Mode)
	}
	stateless := mode == core.ModeScatterPP
	if len(cfg.Services) == 0 {
		return nil, errors.New("agent: node config lists no services")
	}
	steps := make([]wire.Step, len(cfg.Services))
	var hosts [wire.NumSteps]bool
	var err error
	for i, svc := range cfg.Services {
		if steps[i], err = wire.ParseStep(strings.ToLower(svc.Step)); err != nil {
			return nil, fmt.Errorf("agent: service %d: %w", i, err)
		}
		hosts[steps[i]] = true
	}
	if fp := cfg.FastPath; fp != nil && fp.Enabled {
		for _, need := range []wire.Step{wire.StepPrimary, wire.StepMatching} {
			if !hosts[need] {
				return nil, fmt.Errorf("agent: fast_path needs primary and matching on one node, and this node hosts no %s", need)
			}
		}
	}
	hops := make(map[wire.Step][]string)
	for name, addrs := range cfg.Routes {
		step, err := wire.ParseStep(strings.ToLower(name))
		if err != nil {
			return nil, fmt.Errorf("agent: route: %w", err)
		}
		hops[step] = addrs
	}
	base := WorkerConfig{Mode: mode, Network: cfg.Network, TraceSpans: cfg.TraceSpans}
	if cfg.Node != nil {
		base.Host = cfg.Node.Name
	}
	// Fault injection: every worker's outbound traffic goes through the
	// same policy, like tc/netem qdiscs on the node's egress.
	if f := cfg.Fault; f != nil {
		policy := transport.FaultPolicy{Drop: f.Drop, PacketLoss: f.PacketLoss, Duplicate: f.Duplicate,
			Delay: time.Duration(f.DelayMs) * time.Millisecond, Jitter: time.Duration(f.JitterMs) * time.Millisecond}
		if err := policy.Validate(); err != nil {
			return nil, fmt.Errorf("agent: fault: %w", err)
		}
		seed := f.Seed
		if seed == 0 {
			seed = 1
		}
		base.WrapEndpoint = func(ep transport.Endpoint) transport.Endpoint {
			return transport.NewFaultyEndpoint(ep, policy, seed)
		}
		slog.Info("fault injection armed", "drop", policy.Drop, "packet_loss", policy.PacketLoss, "delay", policy.Delay)
	}

	ctx, stop := context.WithCancel(context.Background())
	n := &Node{reg: obs.NewRegistry(), stop: stop}
	base.Obs = n.reg
	router := RouteUpdater(NewStaticRouter(hops))
	if cfg.RouteStats != nil && cfg.RouteStats.Enabled {
		sr := NewStatsRouter(hops, routestats.Config{})
		n.reg.SetRouteSource(sr.Table().Digest)
		router = sr
		slog.Info("stats-driven routing armed", "ack_timeout", sr.AckTimeout())
	}
	base.Router = router
	// The fast-path gate is shared by the primary (reader) and matching
	// (writer) workers on this node.
	var gate *core.FastPathGate
	if fp := cfg.FastPath; fp != nil && fp.Enabled {
		gate = core.NewFastPathGate(core.FastPathConfig{Enabled: true, MinConfidence: fp.MinConfidence,
			RefreshEvery: fp.RefreshEvery, SkipDecay: fp.SkipDecay,
			IdleTimeout: time.Duration(fp.TrackerIdleTimeoutMs) * time.Millisecond})
		n.reg.SetFastPathSource(func() obs.FastPathDigest {
			return obs.FastPathDigest{Skips: gate.Skips(), Fulls: gate.Fulls(), Clients: gate.ClientCount()}
		})
		slog.Info("fast path armed", "refresh_every", fp.RefreshEvery, "min_confidence", fp.MinConfidence)
	}

	// Pipeline order starts sift before matching, so a stateful matching
	// can fetch from the state RPC address its sift bound.
	siftRPC := ""
	bound := make(map[wire.Step][]string)
	for step := wire.Step(0); int(step) < wire.NumSteps; step++ {
		for i, svc := range cfg.Services {
			if steps[i] != step {
				continue
			}
			wc := base
			wc.Step, wc.ListenAddr, wc.StateRPCListen = step, svc.Listen, svc.StateRPC
			wc.Processor = core.NewProcessors(m, stateless, cfg.AnalysisWidth, cfg.AnalysisHeight)[step]
			switch p := wc.Processor.(type) {
			case *core.Primary:
				p.SetFastPath(gate)
			case *core.SIFT:
				if !stateless && wc.StateRPCListen == "" {
					wc.StateRPCListen = "127.0.0.1:0" // for a matching on this node
				}
			case *core.Matching:
				if !stateless {
					addr := cmp.Or(svc.SiftRPC, siftRPC)
					if addr == "" {
						n.Close()
						return nil, errors.New("agent: stateful matching needs sift_rpc or a sift on the same node")
					}
					p = core.NewMatching(m.Objects, RPCStateFetcherContext(ctx, addr, 2*time.Second))
					wc.Processor = p
				}
				p.SetFastPath(gate)
				if fp := cfg.FastPath; fp != nil {
					p.SetMinHits(fp.MinHits)
					p.SetTrackerIdleTimeout(time.Duration(fp.TrackerIdleTimeoutMs) * time.Millisecond)
				}
			}
			w, err := StartWorker(wc)
			if err != nil {
				n.Close()
				return nil, fmt.Errorf("agent: start %s: %w", step, err)
			}
			n.workers = append(n.workers, w)
			siftRPC = cmp.Or(siftRPC, w.RPCAddr())
			bound[step] = append(bound[step], w.Addr())
			slog.Info("service up", "service", step, "addr", w.Addr(), "rpc", w.RPCAddr(), "mode", mode.String())
		}
	}
	for step, addrs := range bound {
		if _, ok := hops[step]; !ok {
			hops[step] = addrs
		}
	}
	router.SetRoutes(hops)

	// Admission enforcement point: verdicts arriving on heartbeat
	// responses land on the live workers, and the enforcement state is
	// exported as scatter_admission_* on the obs endpoints.
	n.reg.SetAdmissionSource(func() obs.AdmissionDigest { return AdmissionDigest(slices.Values(n.workers)) })
	if cfg.ObsListen != "" {
		if n.obsSrv, n.obsAddr, err = obs.Serve(cfg.ObsListen, n.reg, nil); err != nil {
			n.Close()
			return nil, err
		}
		slog.Info("telemetry up", "addr", n.obsAddr)
	}
	if cfg.Orchestrator != "" {
		if err := n.startHeartbeats(ctx, cfg); err != nil {
			n.Close()
			return nil, fmt.Errorf("agent: register with orchestrator: %w", err)
		}
	}
	// Every 10 s, the node-local view of the sidecar analytics.
	n.loops.Add(1)
	go func() {
		defer n.loops.Done()
		ticker := time.NewTicker(10 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				for _, w := range n.workers {
					slog.Info("stats", "service", w.cfg.Step, "counters", w.Stats())
				}
			}
		}
	}()
	return n, nil
}

// startHeartbeats registers with the root orchestrator and heartbeats
// until ctx ends: hardware telemetry plus this node's live application
// digest (the §6 extension) up, admission verdicts for its sidecars down.
func (n *Node) startHeartbeats(ctx context.Context, cfg NodeConfig) error {
	info := orchestrator.NodeInfo{Cluster: "edge", CPUCores: runtime.NumCPU(), MemBytes: 8 << 30}
	if cfg.Node != nil {
		info = *cfg.Node
	} else {
		info.Name, _ = os.Hostname()
	}
	ctl := orchestrator.NewClient(cfg.Orchestrator, 5*time.Second)
	ctl.SetAdmissionHandler(func(adm []orchestrator.ServiceAdmission) {
		ApplyAdmissions(slices.Values(n.workers), adm)
	})
	err := ctl.StartHeartbeats(ctx, info, 2*time.Second, func() orchestrator.NodeStatus {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return orchestrator.NodeStatus{
			MemUsed:       int64(ms.Alloc),
			LastHeartbeat: time.Now(),
			Services:      orchestrator.TelemetryFromDigests(n.reg.Digest()),
			Routes:        orchestrator.RouteTelemetry(n.reg.RouteDigests()),
		}
	}, func(err error) { slog.Warn("heartbeat", "err", err) })
	if err == nil {
		slog.Info("registered with orchestrator", "url", cfg.Orchestrator, "node", info.Name)
	}
	return err
}

// Worker returns the first worker serving step on this node, or nil.
func (n *Node) Worker(step wire.Step) *Worker {
	for _, w := range n.workers {
		if w.cfg.Step == step {
			return w
		}
	}
	return nil
}

// Registry returns the live metrics registry this node's workers feed.
func (n *Node) Registry() *obs.Registry { return n.reg }

// ObsAddr returns the bound telemetry address, or "" without obs_listen.
func (n *Node) ObsAddr() string { return n.obsAddr }

// Close stops the heartbeats and the stats log, cancels in-flight state
// fetches, and closes every worker and the telemetry server.
func (n *Node) Close() error {
	n.stop()
	n.loops.Wait()
	var errs []error
	for _, w := range n.workers {
		errs = append(errs, w.Close())
	}
	if n.obsSrv != nil {
		errs = append(errs, n.obsSrv.Close())
	}
	return errors.Join(errs...)
}
