// Package scatter is the public API of the scAtteR / scAtteR++
// reproduction: a distributed stream-processing augmented-reality
// pipeline (primary → sift → encoding → lsh → matching), an
// Oakestra-style edge orchestrator, a real UDP/RPC runtime
// executing pure-Go vision algorithms, and a deterministic edge-cloud
// testbed simulator that regenerates every figure of the CoNEXT 2023
// paper "Characterizing Distributed Mobile Augmented Reality
// Applications at the Edge".
//
// The package is a small facade over the internal implementation, cut
// to what examples/ and the package's own tests call:
//
//   - Pipeline identifiers: Mode (scAtteR vs scAtteR++), Step, Frame.
//   - Real vision processing: Train builds a recognition Model from a
//     VideoSource's reference images; NewProcessors returns the five
//     services; FramePayload and DecodeResult encode a clip frame and
//     read back its detections.
//   - Real runtime: StartWorker, StartClient and NewStaticRouter run the
//     services over UDP; NewFaultyEndpoint injects link faults; a
//     Deployer runs workers under an orchestrator's lifecycle hooks.
//   - Orchestration: NewOrchestrator, SLA, and the HTTP control plane.
//   - Observability: per-service digests of the live registry, per-frame
//     Spans, and Chrome trace export (WriteChromeTrace) for Perfetto.
//   - Simulated testbed: RunExperiment on the paper's placements,
//     machine profiles and network links.
//
// The figure runners, autoscaling policies and the rest of the
// implementation live in the internal packages; cmd/scatter-bench
// regenerates the paper's evaluation. See examples/ for runnable entry
// points and EXPERIMENTS.md for the paper-versus-measured record.
package scatter

import (
	"io"
	"time"

	"github.com/edge-mar/scatter/internal/agent"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/experiments"
	"github.com/edge-mar/scatter/internal/netem"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/testbed"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

// Pipeline identifiers.
type (
	// Mode selects scAtteR (stateful, drop-if-busy) or scAtteR++
	// (stateless sift + sidecar queues).
	Mode = core.Mode
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
	// Detection is a recognized/tracked object with bounding box.
	Detection = core.Detection
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
	// StaticRouter is a fixed round-robin routing table.
	StaticRouter = agent.StaticRouter
	// Client streams frames into a deployment.
	Client = agent.Client
	// ClientConfig configures a streaming client.
	ClientConfig = agent.ClientConfig
)

// StartWorker launches a real service worker.
func StartWorker(cfg WorkerConfig) (*Worker, error) { return agent.StartWorker(cfg) }

// StartClient launches a real streaming client.
func StartClient(cfg ClientConfig) (*Client, error) { return agent.StartClient(cfg) }

// NewStaticRouter builds a fixed routing table.
func NewStaticRouter(hops map[Step][]string) *StaticRouter { return agent.NewStaticRouter(hops) }

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
	// Deployer bridges orchestrator scheduling hooks to live workers and
	// keeps a StaticRouter in sync with the placement, so failure-driven
	// migrations reroute frames.
	Deployer = agent.Deployer
	// DeployerConfig configures a Deployer.
	DeployerConfig = agent.DeployerConfig
	// OrchestratorHooks notify the runtime about instance lifecycle
	// transitions.
	OrchestratorHooks = orchestrator.Hooks
)

// NewFaultyEndpoint wraps inner with a default fault policy; seed fixes
// the injected fault pattern for reproducible chaos runs.
func NewFaultyEndpoint(inner Endpoint, def FaultPolicy, seed int64) *FaultyEndpoint {
	return transport.NewFaultyEndpoint(inner, def, seed)
}

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

// Observability: per-frame spans, live service digests, trace export.
type (
	// ServiceDigest is one service's live telemetry snapshot.
	ServiceDigest = obs.ServiceDigest
	// Span is one service's handling of one frame: queue-wait plus
	// processing segments and an outcome.
	Span = obs.Span
	// SpanRecord is the wire form of a span as carried on frames.
	SpanRecord = wire.SpanRecord
)

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

// Simulated testbed.
type (
	// RunSpec describes one simulated run.
	RunSpec = experiments.RunSpec
	// RunPoint is a measured outcome.
	RunPoint = experiments.RunPoint
	// LinkConfig describes an emulated network link.
	LinkConfig = netem.LinkConfig
)

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
)

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
