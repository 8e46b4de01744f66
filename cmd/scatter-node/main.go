// Command scatter-node hosts scAtteR service workers on one machine: it
// trains (or re-derives deterministically) the recognition model, starts
// the requested services on their UDP ingress addresses, serves sift's
// state-fetch RPC in stateful mode, and optionally registers with a root
// orchestrator and heartbeats hardware telemetry.
//
// The deployment is described by a JSON file:
//
//	{
//	  "mode": "scatter++",
//	  "analysis_width": 320, "analysis_height": 180,
//	  "train_seed": 7,
//	  "services": [
//	    {"step": "primary",  "listen": "127.0.0.1:7001"},
//	    {"step": "sift",     "listen": "127.0.0.1:7002", "state_rpc": "127.0.0.1:7102"},
//	    {"step": "encoding", "listen": "127.0.0.1:7003"},
//	    {"step": "lsh",      "listen": "127.0.0.1:7004"},
//	    {"step": "matching", "listen": "127.0.0.1:7005", "sift_rpc": "127.0.0.1:7102"}
//	  ],
//	  "routes": {
//	    "sift": ["127.0.0.1:7002"], "encoding": ["127.0.0.1:7003"],
//	    "lsh": ["127.0.0.1:7004"], "matching": ["127.0.0.1:7005"]
//	  },
//	  "obs_listen": "127.0.0.1:9100",
//	  "trace_spans": true,
//	  "route_stats": {"enabled": true, "ack_timeout_ms": 250},
//	  "fast_path": {"enabled": true, "refresh_every": 30, "min_confidence": 0.5},
//	  "fault": {"packet_loss": 0.01, "delay_ms": 5, "seed": 42}
//	}
//
// obs_listen serves live telemetry (/metrics, /metrics.json, /healthz,
// /routes, /routes.json, /debug/vars, /debug/pprof); trace_spans stamps
// per-service spans onto frames for end-to-end trace reconstruction at
// the client; route_stats upgrades forwarding from static round-robin
// to stats-driven replica selection over live per-replica windows (hop
// acks feed EWMA latency and loss; unhealthy replicas are shed, ejected,
// and re-admitted after probation), published on the obs endpoints and
// in heartbeats;
// fast_path arms the tracker-gated recognition fast path (confident
// frames answered at primary from matching's published verdicts, skipping
// sift→matching; scatter_fastpath_* series on the obs endpoints); fault
// (all fields optional) injects drops, compounding per-fragment loss,
// delay, jitter, and duplication on this node's outbound traffic for
// chaos experiments.
//
// Split deployments run scatter-node on several machines with routes
// pointing across hosts, exactly as the paper pins services to E1/E2.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/edge-mar/scatter/internal/agent"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/obs/routestats"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

type serviceSpec struct {
	Step     string `json:"step"`
	Listen   string `json:"listen"`
	StateRPC string `json:"state_rpc,omitempty"`
	SiftRPC  string `json:"sift_rpc,omitempty"`
}

// faultSpec configures outbound fault injection for every worker on this
// node — the deployment-level knob for chaos experiments (see
// EXPERIMENTS.md). All fields optional; the zero value injects nothing.
type faultSpec struct {
	Drop       float64 `json:"drop,omitempty"`        // per-message drop probability
	PacketLoss float64 `json:"packet_loss,omitempty"` // per-1500B-fragment loss
	DelayMs    int     `json:"delay_ms,omitempty"`
	JitterMs   int     `json:"jitter_ms,omitempty"`
	Duplicate  float64 `json:"duplicate,omitempty"`
	Seed       int64   `json:"seed,omitempty"` // fault pattern seed (default 1)
}

func (f *faultSpec) policy() transport.FaultPolicy {
	return transport.FaultPolicy{
		Drop:       f.Drop,
		PacketLoss: f.PacketLoss,
		Delay:      time.Duration(f.DelayMs) * time.Millisecond,
		Jitter:     time.Duration(f.JitterMs) * time.Millisecond,
		Duplicate:  f.Duplicate,
	}
}

// fastPathSpec arms the tracker-gated recognition fast path on this node
// (effective when primary and matching are co-located here: matching
// publishes per-client verdicts, primary answers confident frames without
// running sift→matching). Zero fields take the core.FastPathConfig
// defaults. min_hits and tracker_idle_timeout_ms are tracker-lifecycle
// knobs applied to matching whenever this block is present, even with
// enabled=false.
type fastPathSpec struct {
	Enabled              bool    `json:"enabled"`
	MinConfidence        float64 `json:"min_confidence,omitempty"`
	RefreshEvery         int     `json:"refresh_every,omitempty"`
	SkipDecay            float64 `json:"skip_decay,omitempty"`
	MinHits              int     `json:"min_hits,omitempty"`
	TrackerIdleTimeoutMs int     `json:"tracker_idle_timeout_ms,omitempty"`
}

// routeStatsSpec arms stats-driven routing. Zero fields take the
// routestats defaults; see internal/obs/routestats for the semantics.
type routeStatsSpec struct {
	Enabled            bool    `json:"enabled"`
	Alpha              float64 `json:"alpha,omitempty"`
	AckTimeoutMs       int     `json:"ack_timeout_ms,omitempty"`
	MinSamples         uint64  `json:"min_samples,omitempty"`
	DegradeLoss        float64 `json:"degrade_loss,omitempty"`
	EjectLoss          float64 `json:"eject_loss,omitempty"`
	EjectFailures      uint32  `json:"eject_failures,omitempty"`
	ProbationMs        int     `json:"probation_ms,omitempty"`
	ProbationSuccesses uint32  `json:"probation_successes,omitempty"`
	ProbeEvery         uint64  `json:"probe_every,omitempty"`
	Seed               uint64  `json:"seed,omitempty"`
}

func (r *routeStatsSpec) config() routestats.Config {
	return routestats.Config{
		Alpha:              r.Alpha,
		AckTimeout:         time.Duration(r.AckTimeoutMs) * time.Millisecond,
		MinSamples:         r.MinSamples,
		DegradeLoss:        r.DegradeLoss,
		EjectLoss:          r.EjectLoss,
		EjectFailures:      r.EjectFailures,
		Probation:          time.Duration(r.ProbationMs) * time.Millisecond,
		ProbationSuccesses: r.ProbationSuccesses,
		ProbeEvery:         r.ProbeEvery,
		Seed:               r.Seed,
	}
}

type nodeConfig struct {
	Mode           string              `json:"mode"`    // "scatter" or "scatter++"
	Network        string              `json:"network"` // "udp" (default) or "tcp"
	AnalysisWidth  int                 `json:"analysis_width"`
	AnalysisHeight int                 `json:"analysis_height"`
	TrainSeed      int64               `json:"train_seed"`
	Services       []serviceSpec       `json:"services"`
	Routes         map[string][]string `json:"routes"`
	// Orchestrator, when set, is the root control plane URL this node
	// registers with and heartbeats to.
	Orchestrator string                 `json:"orchestrator,omitempty"`
	Node         *orchestrator.NodeInfo `json:"node,omitempty"`
	// ObsListen, when set, serves the live telemetry endpoints
	// (/metrics, /metrics.json, /healthz, /debug/vars, /debug/pprof) on
	// this address.
	ObsListen string `json:"obs_listen,omitempty"`
	// TraceSpans stamps a per-service span onto every processed frame so
	// clients can reconstruct queue-wait vs processing segments. Off by
	// default: benchmark runs carry no tracing overhead.
	TraceSpans bool `json:"trace_spans,omitempty"`
	// Fault, when set, wraps every worker's endpoint in a fault injector
	// applying the policy to all outbound traffic from this node.
	Fault *faultSpec `json:"fault,omitempty"`
	// RouteStats, when enabled, replaces the static round-robin router
	// with the stats-driven one: per-replica windows fed by hop acks
	// drive power-of-two-choices selection, health ejection, and
	// probation re-admission. The windows are exported on the obs
	// endpoints (scatter_route_*, /routes) and in heartbeats.
	RouteStats *routeStatsSpec `json:"route_stats,omitempty"`
	// FastPath, when enabled, arms the tracker-gated recognition fast
	// path: confident frames are answered at primary from matching's
	// published verdicts and skip sift→encoding→lsh→matching. Exported as
	// scatter_fastpath_* on the obs endpoints.
	FastPath *fastPathSpec `json:"fast_path,omitempty"`
}

// parseConfig decodes a node deployment document. Keys it does not know
// are an error, so a stale or misspelt setting fails at start with the
// key named instead of silently doing nothing.
func parseConfig(data []byte) (nodeConfig, error) {
	var cfg nodeConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nodeConfig{}, err
	}
	if dec.More() {
		return nodeConfig{}, errors.New("trailing data after the config document")
	}
	return cfg, nil
}

func main() {
	configPath := flag.String("config", "", "path to the node deployment JSON (required)")
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "scatter-node: -config is required")
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		log.Error("read config", "err", err)
		os.Exit(1)
	}
	cfg, err := parseConfig(data)
	if err != nil {
		log.Error("parse config", "err", err)
		os.Exit(1)
	}
	mode := core.ModeScatter
	switch strings.ToLower(cfg.Mode) {
	case "", "scatter":
	case "scatter++", "scatterpp":
		mode = core.ModeScatterPP
	default:
		log.Error("unknown mode", "mode", cfg.Mode)
		os.Exit(2)
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

	// Every node derives the identical model from the shared seed — the
	// stand-in for distributing a trained model artifact.
	gen := trace.NewGenerator(trace.Config{
		W: cfg.AnalysisWidth, H: cfg.AnalysisHeight, Seed: cfg.TrainSeed,
	})
	log.Info("training recognition model", "seed", cfg.TrainSeed)
	model, err := core.Train(gen.ReferenceImages(), core.TrainConfig{Seed: cfg.TrainSeed})
	if err != nil {
		log.Error("train", "err", err)
		os.Exit(1)
	}

	hops := make(map[wire.Step][]string)
	for name, addrs := range cfg.Routes {
		step, err := wire.ParseStep(strings.ToLower(name))
		if err != nil {
			log.Error("route", "err", err)
			os.Exit(2)
		}
		hops[step] = addrs
	}
	var router agent.Router = agent.NewStaticRouter(hops)
	var statsRouter *agent.StatsRouter
	if cfg.RouteStats != nil && cfg.RouteStats.Enabled {
		statsRouter = agent.NewStatsRouter(hops, cfg.RouteStats.config())
		router = statsRouter
		log.Info("stats-driven routing armed",
			"ack_timeout", statsRouter.AckTimeout())
	}

	// Optional tracker-gated fast path: the gate is shared by the primary
	// (reader) and matching (writer) workers on this node.
	var gate *core.FastPathGate
	if cfg.FastPath != nil && cfg.FastPath.Enabled {
		gate = core.NewFastPathGate(core.FastPathConfig{
			Enabled:       true,
			MinConfidence: cfg.FastPath.MinConfidence,
			RefreshEvery:  cfg.FastPath.RefreshEvery,
			SkipDecay:     cfg.FastPath.SkipDecay,
			IdleTimeout:   time.Duration(cfg.FastPath.TrackerIdleTimeoutMs) * time.Millisecond,
		})
		log.Info("fast path armed",
			"refresh_every", cfg.FastPath.RefreshEvery,
			"min_confidence", cfg.FastPath.MinConfidence)
	}
	// Optional fault injection: every worker's outbound traffic goes
	// through the same policy, like tc/netem qdiscs on the node's egress.
	var wrapEndpoint func(transport.Endpoint) transport.Endpoint
	if cfg.Fault != nil {
		policy := cfg.Fault.policy()
		if err := policy.Validate(); err != nil {
			log.Error("fault config", "err", err)
			os.Exit(2)
		}
		seed := cfg.Fault.Seed
		if seed == 0 {
			seed = 1
		}
		wrapEndpoint = func(ep transport.Endpoint) transport.Endpoint {
			return transport.NewFaultyEndpoint(ep, policy, seed)
		}
		log.Info("fault injection armed", "drop", policy.Drop,
			"packet_loss", policy.PacketLoss, "delay", policy.Delay)
	}

	// Lifetime context for in-flight state fetches: cancelled at shutdown
	// so a dead sift peer cannot hold matching goroutines to the timeout.
	rootCtx, cancelRoot := context.WithCancel(context.Background())
	defer cancelRoot()

	// Live metrics registry shared by every worker on this node; the
	// span host label prefers the orchestrator node name.
	reg := obs.NewRegistry()
	if statsRouter != nil {
		reg.SetRouteSource(statsRouter.Table().Digest)
	}
	if gate != nil {
		reg.SetFastPathSource(func() obs.FastPathDigest {
			return obs.FastPathDigest{
				Skips:   gate.Skips(),
				Fulls:   gate.Fulls(),
				Clients: gate.ClientCount(),
			}
		})
	}
	hostLabel := ""
	if cfg.Node != nil {
		hostLabel = cfg.Node.Name
	}

	stateless := mode == core.ModeScatterPP
	var workers []*agent.Worker
	for _, svc := range cfg.Services {
		step, err := wire.ParseStep(strings.ToLower(svc.Step))
		if err != nil {
			log.Error("service", "err", err)
			os.Exit(2)
		}
		var proc core.Processor
		switch step {
		case wire.StepPrimary:
			p := core.NewPrimary(cfg.AnalysisWidth, cfg.AnalysisHeight)
			p.SetFastPath(gate)
			proc = p
		case wire.StepSIFT:
			proc = core.NewSIFT(150, stateless)
		case wire.StepEncoding:
			proc = core.NewEncoding(model.PCA, model.Encoder)
		case wire.StepLSH:
			proc = core.NewLSHService(model.Index, 3)
		case wire.StepMatching:
			var fetch core.StateFetcher
			if !stateless {
				if svc.SiftRPC == "" {
					log.Error("stateful matching requires sift_rpc", "service", svc.Step)
					os.Exit(2)
				}
				fetch = agent.RPCStateFetcherContext(rootCtx, svc.SiftRPC, 2*time.Second)
			}
			m := core.NewMatching(model.Objects, fetch)
			m.SetFastPath(gate)
			if cfg.FastPath != nil {
				m.SetMinHits(cfg.FastPath.MinHits)
				m.SetTrackerIdleTimeout(time.Duration(cfg.FastPath.TrackerIdleTimeoutMs) * time.Millisecond)
			}
			proc = m
		}
		w, err := agent.StartWorker(agent.WorkerConfig{
			Step:           step,
			Mode:           mode,
			Processor:      proc,
			ListenAddr:     svc.Listen,
			Router:         router,
			StateRPCListen: svc.StateRPC,
			Network:        cfg.Network,
			WrapEndpoint:   wrapEndpoint,
			Log:            log,
			Obs:            reg,
			Host:           hostLabel,
			TraceSpans:     cfg.TraceSpans,
		})
		if err != nil {
			log.Error("start worker", "service", svc.Step, "err", err)
			os.Exit(1)
		}
		workers = append(workers, w)
		log.Info("service up", "service", svc.Step, "addr", w.Addr(), "rpc", w.RPCAddr(), "mode", mode.String())
	}
	if len(workers) == 0 {
		log.Error("no services configured")
		os.Exit(2)
	}

	// Admission enforcement point: verdicts arriving on heartbeat
	// responses land on the live workers, and the enforcement state is
	// exported as scatter_admission_* on the obs endpoints.
	reg.SetAdmissionSource(func() obs.AdmissionDigest { return agent.AdmissionDigest(slices.Values(workers)) })

	if cfg.ObsListen != "" {
		srv, addr, err := obs.Serve(cfg.ObsListen, reg, nil)
		if err != nil {
			log.Error("serve telemetry", "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Info("telemetry up", "addr", addr)
	}

	// Optional control-plane integration: register and heartbeat host
	// telemetry. Hardware metrics alone are the orchestrator view the
	// paper critiques as insufficient for AR QoS; the heartbeat also
	// carries this node's live application digest (the §6 extension) so
	// app-aware policies at the root can read drop ratios directly, and
	// the response downlink carries the root's admission verdicts back to
	// this node's sidecars.
	if cfg.Orchestrator != "" {
		if cfg.Node == nil {
			hostname, _ := os.Hostname()
			cfg.Node = &orchestrator.NodeInfo{
				Name:     hostname,
				Cluster:  "edge",
				CPUCores: runtime.NumCPU(),
				MemBytes: 8 << 30,
			}
		}
		ctl := orchestrator.NewClient(cfg.Orchestrator, 5*time.Second)
		ctl.SetAdmissionHandler(func(adm []orchestrator.ServiceAdmission) {
			agent.ApplyAdmissions(slices.Values(workers), adm)
		})
		ctx, cancelHB := context.WithCancel(context.Background())
		defer cancelHB()
		err := ctl.StartHeartbeats(ctx, *cfg.Node, 2*time.Second, func() orchestrator.NodeStatus {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return orchestrator.NodeStatus{
				MemUsed:       int64(ms.Alloc),
				LastHeartbeat: time.Now(),
				Services:      orchestrator.TelemetryFromDigests(reg.Digest()),
				Routes:        orchestrator.RouteTelemetry(reg.RouteDigests()),
			}
		}, func(err error) {
			log.Warn("heartbeat", "err", err)
		})
		if err != nil {
			log.Error("register with orchestrator", "err", err)
			os.Exit(1)
		}
		log.Info("registered with orchestrator", "url", cfg.Orchestrator, "node", cfg.Node.Name)
	}

	// Periodic stats, the node-local view of the sidecar analytics.
	go func() {
		ticker := time.NewTicker(10 * time.Second)
		defer ticker.Stop()
		for range ticker.C {
			for i, w := range workers {
				st := w.Stats()
				log.Info("stats", "service", cfg.Services[i].Step,
					"received", st.Received, "processed", st.Processed,
					"drop_busy", st.DroppedBusy, "drop_queue", st.DroppedQueue,
					"drop_threshold", st.DroppedThreshold, "errors", st.Errors,
					"forward_retries", st.ForwardRetries)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Info("shutting down")
	for _, w := range workers {
		w.Close()
	}
}
