// Package scatter is the public API of the scAtteR / scAtteR++
// reproduction: a distributed stream-processing augmented-reality
// pipeline (primary → sift → encoding → lsh → matching), an
// Oakestra-style hierarchical edge orchestrator, a real UDP/RPC runtime
// executing pure-Go vision algorithms, and a deterministic edge-cloud
// testbed simulator that regenerates every figure of the CoNEXT 2023
// paper "Characterizing Distributed Mobile Augmented Reality
// Applications at the Edge".
//
// The package is a facade over the internal implementation:
//
//   - Pipeline semantics and the simulated testbed: Pipeline, Placement,
//     Options, Mode (scAtteR vs scAtteR++), NewWorld, RunExperiment.
//   - Real vision processing: Train builds a recognition Model from
//     reference images; NewProcessors returns the five services; the
//     agent types run them over UDP with sidecars and state-fetch RPC.
//   - Orchestration: NewOrchestrator, SLA, and the HTTP control plane.
//   - Observability: per-frame Span tracing across sim and real runtime,
//     the live ObsRegistry with Prometheus/JSON exposition (ServeObs),
//     per-replica routing windows with QoS-aware health (StatsRouter,
//     RouteDigest, the /routes debug view), and Chrome trace export
//     (WriteChromeTrace) for Perfetto.
//   - Experiments: the Fig2…Fig12 and Headline runners regenerate the
//     paper's evaluation.
//
// See examples/ for runnable entry points and EXPERIMENTS.md for the
// paper-versus-measured record.
package scatter

import (
	"context"
	"io"
	"net/http"
	"time"

	"github.com/edge-mar/scatter/internal/agent"
	"github.com/edge-mar/scatter/internal/appaware"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/experiments"
	"github.com/edge-mar/scatter/internal/metrics"
	"github.com/edge-mar/scatter/internal/netem"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/obs/routestats"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/testbed"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/vision/lsh"
	"github.com/edge-mar/scatter/internal/wire"
)

// Pipeline identifiers and semantics.
type (
	// Mode selects scAtteR (stateful, drop-if-busy) or scAtteR++
	// (stateless sift + sidecar queues).
	Mode = core.Mode
	// Options tunes pipeline semantics (threshold, queue capacity,
	// fetch/state timeouts).
	Options = core.Options
	// Step identifies a pipeline stage.
	Step = wire.Step
	// Frame is the envelope exchanged between services.
	Frame = wire.Frame
)

// Pipeline modes.
const (
	ModeScatter   = core.ModeScatter
	ModeScatterPP = core.ModeScatterPP
)

// Pipeline steps.
const (
	StepPrimary  = wire.StepPrimary
	StepSIFT     = wire.StepSIFT
	StepEncoding = wire.StepEncoding
	StepLSH      = wire.StepLSH
	StepMatching = wire.StepMatching
	StepDone     = wire.StepDone
)

// Vision model and real processors.
type (
	// Model is a trained recognition model (PCA + Fisher + LSH +
	// reference features).
	Model = core.Model
	// TrainConfig controls model building.
	TrainConfig = core.TrainConfig
	// Processor is one real pipeline service.
	Processor = core.Processor
	// Payload is the typed frame content of the real pipeline.
	Payload = core.Payload
	// Detection is a recognized/tracked object with bounding box.
	Detection = core.Detection
	// FastPathConfig tunes the tracker-gated recognition fast path
	// (confidence floor, forced-refresh cadence, idle eviction).
	FastPathConfig = core.FastPathConfig
	// FastPathGate is the per-node verdict store the matching service
	// publishes into and the primary service answers confident frames
	// from, skipping sift→encoding→lsh→matching.
	FastPathGate = core.FastPathGate
	// RecognitionCacheConfig tunes the cross-client recognition cache
	// (TTL, capacity).
	RecognitionCacheConfig = core.RecognitionCacheConfig
	// RecognitionCache shares LSH candidate lists across clients keyed by
	// the query's LSH sketch.
	RecognitionCache = core.RecognitionCache
	// LSHIndex is the multi-table LSH index a trained Model carries
	// (Model.Index) — the sketch source for the recognition cache.
	LSHIndex = lsh.Index
	// LSHConfig parameterizes an LSHIndex: vector dimensionality, table
	// shape, multi-probe budget, seed, and the Hamming pre-ranking
	// budget (PreRank; 0 = exact mode).
	LSHConfig = lsh.Config
	// NNIndex is the nearest-neighbour backend seam the lsh service and
	// recognition cache query: satisfied by *LSHIndex, *ShardedIndex, and
	// *ShardGather interchangeably, with bit-identical results.
	NNIndex = core.NNIndex
	// PreRanker is the retuning seam for Hamming pre-ranking: *LSHIndex
	// and *ShardedIndex accept a live SetPreRank(n); 0 restores exact
	// bit-identical ranking.
	PreRanker = core.PreRanker
	// FastPathDigest is the live fast-path snapshot exposed as
	// scatter_fastpath_* series by the obs registry.
	FastPathDigest = obs.FastPathDigest
	// ReferenceImage is a canonical training view of one object.
	ReferenceImage = trace.ReferenceImage
	// VideoSource generates the synthetic workplace clip.
	VideoSource = trace.Generator
	// VideoConfig parameterizes the synthetic clip.
	VideoConfig = trace.Config
)

// Train builds a recognition model from reference images.
func Train(refs []ReferenceImage, cfg TrainConfig) (*Model, error) {
	return core.Train(refs, cfg)
}

// NewProcessors returns the five real services over a trained model.
func NewProcessors(m *Model, stateless bool, analysisW, analysisH int) [wire.NumSteps]Processor {
	return core.NewProcessors(m, stateless, analysisW, analysisH)
}

// NewFastProcessors is NewProcessors with the ORB fast extractor at the
// detection stage (train the model with TrainConfig.FastExtractor).
func NewFastProcessors(m *Model, stateless bool, analysisW, analysisH int) [wire.NumSteps]Processor {
	return core.NewFastProcessors(m, stateless, analysisW, analysisH)
}

// NewFastPathGate builds a tracker-gated fast-path verdict store; wire it
// into the primary and matching processors with their SetFastPath methods
// and expose it via ObsRegistry.SetFastPathSource.
func NewFastPathGate(cfg FastPathConfig) *FastPathGate { return core.NewFastPathGate(cfg) }

// NewRecognitionCache builds a cross-client recognition cache over a
// recognition index (a trained model's LSH index, or a sharded/gather
// backend — partitioned backends prefix keys with their layout
// signature so entries never alias across layouts); install it as an
// LSHService's Cache.
func NewRecognitionCache(cfg RecognitionCacheConfig, index NNIndex) *RecognitionCache {
	return core.NewRecognitionCache(cfg, index)
}

// Sharded reference database with scatter/gather top-k merge.
type (
	// ShardConfig shapes a sharded index: partition count, per-shard
	// replication, and the underlying LSH parameters.
	ShardConfig = lsh.ShardConfig
	// ShardedIndex partitions an LSH reference database across shards by
	// hash space; queries scatter to every shard and merge per-shard
	// top-k under a deterministic total order, bit-identical to the
	// monolithic index at O(N/shards) per-shard cost.
	ShardedIndex = lsh.ShardedIndex
	// ShardStats counts a sharded index's scatter activity.
	ShardStats = lsh.ShardStats
	// Neighbor is one ranked nearest-neighbour result.
	Neighbor = lsh.Neighbor
	// ShardServer serves one shard replica's queries over the wire.
	ShardServer = agent.ShardServer
	// ShardServerConfig configures a shard server.
	ShardServerConfig = agent.ShardServerConfig
	// ShardGather is the sidecar-side scatter/gather client over a shard
	// fleet: it fans queries to every shard, picks replicas by live
	// route health, gathers per-shard top-k under a timeout/quorum
	// policy, and merges deterministically.
	ShardGather = agent.ShardGather
	// ShardGatherConfig configures a gather client (fleet addresses,
	// LSH parameters, gather timeout, quorum, replica health windows).
	ShardGatherConfig = agent.ShardGatherConfig
	// ShardGatherStats counts a gather client's fan-out activity and
	// degradations.
	ShardGatherStats = agent.ShardGatherStats
	// ShardDigest is the live sharding snapshot exposed as
	// scatter_shard_* series by the obs registry.
	ShardDigest = obs.ShardDigest
	// ShardHealth is the orchestrator's per-shard replica coverage view.
	ShardHealth = orchestrator.ShardHealth
	// ShardingSimOptions mirrors sharding in the simulated pipeline
	// (per-shard compute scaling, gather overhead, loss/quorum policy).
	ShardingSimOptions = core.ShardingSimOptions
)

// NewLSHIndex creates an empty LSH index — the recognition database
// kernel: SoA vector arena, Add-time norm caching, packed sign
// sketches, and optional Hamming pre-ranking (LSHConfig.PreRank).
func NewLSHIndex(cfg LSHConfig) *LSHIndex { return lsh.New(cfg) }

// ShardOfID maps a reference-object ID to its owning shard.
func ShardOfID(id int, shards int) int { return lsh.ShardOf(id, shards) }

// NewShardedIndex creates an empty sharded index.
func NewShardedIndex(cfg ShardConfig) *ShardedIndex { return lsh.NewSharded(cfg) }

// NewShardedFrom partitions an existing index's contents across shards,
// inheriting its LSH parameters so results stay bit-identical.
func NewShardedFrom(src *LSHIndex, cfg ShardConfig) *ShardedIndex {
	return lsh.NewShardedFrom(src, cfg)
}

// MergeNeighbors k-way-merges per-shard top-k lists (each sorted by the
// index's total order) into dst, allocation-free when dst has capacity.
func MergeNeighbors(dst []Neighbor, lists [][]Neighbor, k int) []Neighbor {
	return lsh.MergeNeighbors(dst, lists, k)
}

// StartShardServer serves one shard replica on its listen address.
func StartShardServer(cfg ShardServerConfig) (*ShardServer, error) {
	return agent.StartShardServer(cfg)
}

// NewShardGather builds a scatter/gather client over a shard fleet. It
// satisfies NNIndex, so it plugs into NewLSHService and
// NewRecognitionCache directly.
func NewShardGather(cfg ShardGatherConfig) (*ShardGather, error) {
	return agent.NewShardGather(cfg)
}

// NewVideoSource creates the deterministic synthetic clip generator.
func NewVideoSource(cfg VideoConfig) *VideoSource { return trace.NewGenerator(cfg) }

// FramePayload renders frame i of the clip (wrapping at the end) and
// encodes it as the payload a client submits to the pipeline ingress.
func FramePayload(src *VideoSource, i int) []byte {
	img := src.GrayFrame(i % src.NumFrames())
	return (&core.Payload{Image: core.GrayToPayload(img)}).Encode()
}

// DecodeResult extracts the detections from a completed frame's payload.
func DecodeResult(payload []byte) ([]Detection, error) {
	p, err := core.DecodePayload(payload)
	if err != nil {
		return nil, err
	}
	return p.Detections, nil
}

// Real-mode runtime (UDP workers, sidecars, clients).
type (
	// Worker is a running service instance.
	Worker = agent.Worker
	// WorkerConfig configures a worker.
	WorkerConfig = agent.WorkerConfig
	// WorkerStats are a worker's counters (sidecar analytics).
	WorkerStats = agent.WorkerStats
	// Router resolves next-hop addresses.
	Router = agent.Router
	// StaticRouter is a fixed round-robin routing table.
	StaticRouter = agent.StaticRouter
	// StatsRouter picks replicas by live health windows
	// (power-of-two-choices over ack/loss EWMAs), falling back to the
	// StaticRouter order while windows are cold.
	StatsRouter = agent.StatsRouter
	// RouteStatsConfig tunes the routing windows (EWMA alpha, ack
	// timeout, health thresholds, probation).
	RouteStatsConfig = routestats.Config
	// RouteState is a replica's health state (healthy, degraded,
	// probation, ejected).
	RouteState = routestats.State
	// RouteDigest is the snapshot of one replica's routing window.
	RouteDigest = routestats.RouteDigest
	// ReplicaTelemetry is the per-replica route breakdown carried in
	// heartbeats and merged by the orchestrator's telemetry view.
	ReplicaTelemetry = orchestrator.ReplicaTelemetry
	// Client streams frames into a deployment.
	Client = agent.Client
	// ClientConfig configures a streaming client.
	ClientConfig = agent.ClientConfig
	// ClientResult is one processed frame observed by a client.
	ClientResult = agent.ClientResult
)

// StartWorker launches a real service worker.
func StartWorker(cfg WorkerConfig) (*Worker, error) { return agent.StartWorker(cfg) }

// StartClient launches a real streaming client.
func StartClient(cfg ClientConfig) (*Client, error) { return agent.StartClient(cfg) }

// NewStaticRouter builds a fixed routing table.
func NewStaticRouter(hops map[Step][]string) *StaticRouter { return agent.NewStaticRouter(hops) }

// Replica health states, ordered from best to worst.
const (
	RouteHealthy   = routestats.StateHealthy
	RouteDegraded  = routestats.StateDegraded
	RouteProbation = routestats.StateProbation
	RouteEjected   = routestats.StateEjected
)

// NewStatsRouter builds a stats-driven router over the same hops table a
// StaticRouter takes; zero-value cfg fields get defaults. Install it as a
// worker's Router and wire its Table's digest into the ObsRegistry via
// SetRouteSource to expose /routes.
func NewStatsRouter(hops map[Step][]string, cfg RouteStatsConfig) *StatsRouter {
	return agent.NewStatsRouter(hops, cfg)
}

// WriteRouteTable renders route digests as the human-readable table the
// /routes debug endpoint serves.
func WriteRouteTable(w io.Writer, digests []RouteDigest) { obs.WriteRouteTable(w, digests) }

// RPCStateFetcher connects matching to a remote sift's state store.
func RPCStateFetcher(addr string, timeout time.Duration) core.StateFetcher {
	return agent.RPCStateFetcher(addr, timeout)
}

// RPCStateFetcherContext is RPCStateFetcher with a caller-owned context:
// in-flight fetches abort when ctx is cancelled, not just on the per-call
// timeout.
func RPCStateFetcherContext(ctx context.Context, addr string, timeout time.Duration) core.StateFetcher {
	return agent.RPCStateFetcherContext(ctx, addr, timeout)
}

// ParseStep resolves a service name ("primary", "sift", ...) to its Step.
func ParseStep(name string) (Step, error) { return wire.ParseStep(name) }

// Fault injection and failure handling.
type (
	// Endpoint is a message transport (UDP or framed TCP).
	Endpoint = transport.Endpoint
	// FaultPolicy describes injected failures (drops, compounding
	// per-fragment loss, delay, jitter, duplication) on a link.
	FaultPolicy = transport.FaultPolicy
	// FaultyEndpoint wraps an Endpoint and injects a FaultPolicy per
	// destination peer, with togglable partitions — the real-socket
	// counterpart of the simulator's netem links.
	FaultyEndpoint = transport.FaultyEndpoint
	// FaultStats count injected failures.
	FaultStats = transport.FaultStats
	// TCPOptions tune the framed TCP endpoint's failure behaviour
	// (write deadlines, dial timeout, retry budget).
	TCPOptions = transport.TCPOptions
	// ConnStats are the UDP endpoint's cumulative receive-path counters
	// (reassemblies completed, expired, refused at the table bounds,
	// malformed fragments).
	ConnStats = transport.ConnStats
	// FramePool recycles Frame envelopes for the zero-allocation data
	// plane (see DESIGN.md "Buffer ownership & pooling").
	FramePool = wire.FramePool
	// BufPool recycles byte buffers for encode scratch and transport
	// reads; Put never allocates.
	BufPool = wire.BufPool
	// Deployer bridges orchestrator scheduling hooks to live workers and
	// keeps a StaticRouter in sync with the placement, so failure-driven
	// migrations reroute frames.
	Deployer = agent.Deployer
	// DeployerConfig configures a Deployer.
	DeployerConfig = agent.DeployerConfig
	// OrchestratorHooks notify the runtime about instance lifecycle
	// transitions.
	OrchestratorHooks = orchestrator.Hooks
	// Instance is one scheduled replica of a microservice.
	Instance = orchestrator.Instance
)

// NewFaultyEndpoint wraps inner with a default fault policy; seed fixes
// the injected fault pattern for reproducible chaos runs.
func NewFaultyEndpoint(inner Endpoint, def FaultPolicy, seed int64) *FaultyEndpoint {
	return transport.NewFaultyEndpoint(inner, def, seed)
}

// FaultPolicyFromLink converts a simulator link profile (e.g.
// LinkCloudWAN) into the equivalent real-socket fault policy.
func FaultPolicyFromLink(cfg LinkConfig) FaultPolicy { return transport.PolicyFromLink(cfg) }

// NewDeployer creates the orchestrator-to-runtime bridge.
func NewDeployer(cfg DeployerConfig) (*Deployer, error) { return agent.NewDeployer(cfg) }

// WithOrchestratorHooks installs lifecycle hooks on a root orchestrator
// (pass a Deployer's Hooks() to run real workers under orchestration).
func WithOrchestratorHooks(h OrchestratorHooks) orchestrator.Option {
	return orchestrator.WithHooks(h)
}

// WithHeartbeatTimeout overrides the root's failure-detection window.
func WithHeartbeatTimeout(d time.Duration) orchestrator.Option {
	return orchestrator.WithHeartbeatTimeout(d)
}

// Observability: per-frame spans, live metrics registry, exposition.
type (
	// ObsRegistry is the lock-free live metrics registry (counters,
	// gauges, latency histograms) workers and clients feed.
	ObsRegistry = obs.Registry
	// ServiceDigest is one service's live telemetry snapshot.
	ServiceDigest = obs.ServiceDigest
	// Span is one service's handling of one frame: queue-wait plus
	// processing segments and an outcome.
	Span = obs.Span
	// SpanRecorder is a bounded in-memory span sink.
	SpanRecorder = obs.Recorder
	// SpanRecord is the wire form of a span as carried on frames.
	SpanRecord = wire.SpanRecord
	// ServiceTelemetry is the per-service digest carried in heartbeats.
	ServiceTelemetry = orchestrator.ServiceTelemetry
)

// NewObsRegistry creates an empty live metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewSpanRecorder creates a bounded span sink (obs.DefaultMaxSpans when
// max is zero or negative).
func NewSpanRecorder(max int) *SpanRecorder { return obs.NewRecorder(max) }

// ObsHandler serves /metrics, /metrics.json, /healthz, /spans,
// /spans.trace, /debug/vars and /debug/pprof for a registry (rec may be
// nil to disable the span endpoints).
func ObsHandler(reg *ObsRegistry, rec *SpanRecorder) http.Handler {
	return obs.Handler(reg, rec)
}

// ServeObs starts an HTTP server exposing ObsHandler on addr (":0" picks
// an ephemeral port) and returns the server plus its bound address.
func ServeObs(addr string, reg *ObsRegistry, rec *SpanRecorder) (*http.Server, string, error) {
	return obs.Serve(addr, reg, rec)
}

// SpansFromWire converts the span records a result frame carried into
// exporter-ready spans.
func SpansFromWire(clientID uint32, frameNo uint64, recs []SpanRecord) []Span {
	return obs.FromWire(clientID, frameNo, recs)
}

// NormalizeSpans shifts span timestamps so the earliest enqueue is zero —
// use before exporting real-runtime spans, whose stamps are wall-clock.
func NormalizeSpans(spans []Span) []Span { return obs.Normalize(spans) }

// WriteChromeTrace renders spans as Chrome trace-event JSON loadable in
// Perfetto / chrome://tracing: hosts become processes, services threads,
// each frame a flow of queue and processing slices.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	return obs.WriteChromeTrace(w, spans)
}

// Orchestration.
type (
	// Orchestrator is the Oakestra-style root orchestrator.
	Orchestrator = orchestrator.Root
	// SLA is an application service-level agreement.
	SLA = orchestrator.SLA
	// ServiceSLA describes one microservice in an SLA.
	ServiceSLA = orchestrator.ServiceSLA
	// Requirements constrain placements.
	Requirements = orchestrator.Requirements
	// NodeInfo describes a worker node.
	NodeInfo = orchestrator.NodeInfo
	// NodeStatus is a node's hardware telemetry report.
	NodeStatus = orchestrator.NodeStatus
	// Deployment is a scheduling outcome.
	Deployment = orchestrator.Deployment
	// APIServer is the HTTP control plane.
	APIServer = orchestrator.APIServer
)

// NewOrchestrator creates a root orchestrator.
func NewOrchestrator(opts ...orchestrator.Option) *Orchestrator {
	return orchestrator.NewRoot(opts...)
}

// NewAPIServer wraps an orchestrator with the HTTP control plane.
func NewAPIServer(root *Orchestrator) *APIServer { return orchestrator.NewAPIServer(root) }

// NodeStatusAt builds an otherwise-empty telemetry report stamped at t —
// a heartbeat.
func NodeStatusAt(t time.Time) NodeStatus { return NodeStatus{LastHeartbeat: t} }

// Live app-aware autoscaling and admission control (the closed §6 loop).
type (
	// Autoscaler is the orchestrator-side control loop: each period it
	// windows the merged heartbeat telemetry into a policy signal, scales
	// distressed services through the scheduler, and escalates to
	// admission control when scale-out is capped or unschedulable.
	Autoscaler = orchestrator.Autoscaler
	// AutoscalerConfig parameterizes the control loop.
	AutoscalerConfig = orchestrator.AutoscalerConfig
	// AutoscaleEvent is one applied control action.
	AutoscaleEvent = orchestrator.AutoscaleEvent
	// AutoscaleDigest is the loop's status snapshot, served at
	// /api/v1/autoscaler and as scatter_autoscale_* on /metrics.
	AutoscaleDigest = obs.AutoscaleDigest
	// AdmissionDigest is a node's live sidecar-admission snapshot
	// (scatter_admission_* series).
	AdmissionDigest = obs.AdmissionDigest
	// ServiceAdmission is one service's admission verdict as carried on
	// heartbeat responses.
	ServiceAdmission = orchestrator.ServiceAdmission
	// HeartbeatResponse is the control plane's downlink: the verdicts a
	// node must enforce (absent services are admitted).
	HeartbeatResponse = orchestrator.HeartbeatResponse
	// AdmitState is a sidecar-ingress admission verdict.
	AdmitState = core.AdmitState
	// AppPolicy decides scaling from a windowed application signal.
	AppPolicy = appaware.Policy
	// HardwarePolicy scales on machine utilization thresholds alone —
	// the baseline the paper critiques.
	HardwarePolicy = appaware.HardwarePolicy
	// QoSPolicy scales on windowed per-service drop ratios and p95
	// service latency — the app-aware policy.
	QoSPolicy = appaware.QoSPolicy
	// AdmissionPolicy tunes the degrade/reject/recover hysteresis.
	AdmissionPolicy = appaware.AdmissionPolicy
	// AppSignal is the windowed per-period control signal policies see.
	AppSignal = appaware.Signal
)

// Admission verdicts, ordered by severity.
const (
	AdmitOK      = core.AdmitOK
	AdmitDegrade = core.AdmitDegrade
	AdmitReject  = core.AdmitReject
)

// DegradeStride is the ingress decimation under AdmitDegrade: one frame
// in DegradeStride is admitted, by frame number.
const DegradeStride = core.DegradeStride

// NewAutoscaler wires the live control loop over a root orchestrator;
// start it with Run or drive it directly with Tick.
func NewAutoscaler(root *Orchestrator, cfg AutoscalerConfig) *Autoscaler {
	return orchestrator.NewAutoscaler(root, cfg)
}

// WindowDelta converts a cumulative counter pair into one window's
// activity, saturating on counter resets.
func WindowDelta(cur, last uint64) uint64 { return appaware.WindowDelta(cur, last) }

// TelemetryFromDigests converts a node registry's live service digests
// into the heartbeat representation.
func TelemetryFromDigests(ds []ServiceDigest) []ServiceTelemetry {
	return orchestrator.TelemetryFromDigests(ds)
}

// Simulated testbed and experiments.
type (
	// World is a simulated instantiation of the paper's testbed.
	World = experiments.World
	// RunSpec describes one simulated run.
	RunSpec = experiments.RunSpec
	// RunPoint is a measured outcome.
	RunPoint = experiments.RunPoint
	// Report is a renderable experiment report.
	Report = experiments.Report
	// Summary is the QoS digest of a run.
	Summary = metrics.Summary
	// MachineConfig describes a simulated machine.
	MachineConfig = testbed.MachineConfig
	// LinkConfig describes an emulated network link.
	LinkConfig = netem.LinkConfig
	// HeadlineResult holds the paper's headline comparison scalars.
	HeadlineResult = experiments.HeadlineResult
)

// Placement assigns pipeline steps to machine replicas.
type Placement = core.Placement

// NewWorld builds the simulated E1/E2/cloud testbed.
func NewWorld(seed int64) *World { return experiments.NewWorld(seed) }

// RunExperiment executes one simulated run.
func RunExperiment(spec RunSpec) RunPoint { return experiments.Run(spec) }

// Placement builders for the paper's deployment configurations.
var (
	// PlacementC1 puts every service on E1.
	PlacementC1 = experiments.ConfigC1
	// PlacementC2 puts every service on E2.
	PlacementC2 = experiments.ConfigC2
	// PlacementC12 is [E1,E1,E2,E2,E2].
	PlacementC12 = experiments.ConfigC12
	// PlacementC21 is [E2,E2,E1,E1,E1].
	PlacementC21 = experiments.ConfigC21
	// PlacementCloud puts every service on the AWS VM.
	PlacementCloud = experiments.ConfigCloud
	// PlacementHybrid is [E1,C,C,C,C].
	PlacementHybrid = experiments.ConfigHybrid
	// PlacementScaled builds a replication vector on E2 with extra
	// replicas on E1, e.g. PlacementScaled([5]int{1,2,2,1,2}).
	PlacementScaled = experiments.ConfigScaled
)

// Experiment runners, one per paper figure. Each returns the measured
// points and a renderable report. Duration is the virtual run length per
// point (use experiments.DefaultDuration, 60 s, for CLI-grade numbers).
var (
	Fig2     = experiments.Fig2
	Fig3     = experiments.Fig3
	Fig4     = experiments.Fig4
	Fig6     = experiments.Fig6
	Fig7     = experiments.Fig7
	Fig9     = experiments.Fig9
	Fig10    = experiments.Fig10
	Fig11    = experiments.Fig11
	Headline = experiments.Headline
)

// AppAware runs the §6 future-work extension: autoscaling policies
// driven by hardware telemetry vs sidecar QoS analytics.
var AppAware = experiments.AppAware

// Fig8 regenerates the staged sidecar analytics on the scaled cluster.
func Fig8() (RunPoint, Report) { return experiments.Fig8() }

// Fig12 regenerates the staged sidecar analytics on E1.
func Fig12() (RunPoint, Report) { return experiments.Fig12() }

// DefaultDuration is the standard virtual run length per experiment point.
const DefaultDuration = experiments.DefaultDuration

// Testbed machine profiles from the paper (§3.2).
var (
	MachineE1    = testbed.E1
	MachineE2    = testbed.E2
	MachineCloud = testbed.Cloud
)

// Network profiles from the paper (§3.2, §A.1.1).
var (
	LinkLTE      = netem.LTE
	Link5G       = netem.FiveG
	LinkWiFi6    = netem.WiFi6
	LinkCloudWAN = netem.CloudWAN
	WithMobility = netem.WithMobility
)
