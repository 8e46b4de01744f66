// Package orchestrator implements an Oakestra-style edge orchestration
// framework: a root orchestrator over worker nodes, grouped by cluster,
// with heterogeneous capabilities (CPU, GPU count and architecture,
// memory), SLA-driven service deployment with hardware constraints,
// replica placement pushed to the runtime through lifecycle hooks,
// heartbeat-based failure detection with automatic re-deployment, and
// hardware-level resource monitoring.
//
// Two properties of the paper's setting are deliberately preserved:
//
//   - Scheduling and monitoring see only hardware-level metrics. The
//     orchestrator has no visibility into application QoS — which is
//     exactly the blind spot the paper's insights (I) and (IV) identify.
//   - Machines expose GPU architectures (GeForce RTX / Ampere / Tesla)
//     and SLAs constrain placements to architectures their images were
//     compiled for, reproducing the manual image–target mapping problem
//     the paper automates with Oakestra.
package orchestrator

import (
	"fmt"
	"time"

	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/obs/routestats"
)

// NodeInfo describes a worker node's immutable capabilities.
type NodeInfo struct {
	Name     string `json:"name"`
	Cluster  string `json:"cluster"`
	CPUCores int    `json:"cpu_cores"`
	GPUs     int    `json:"gpus"`
	GPUArch  string `json:"gpu_arch,omitempty"`
	MemBytes int64  `json:"mem_bytes"`
	// Addr is the node agent's reachable address (real deployments).
	Addr string `json:"addr,omitempty"`
}

// Validate reports configuration errors.
func (n NodeInfo) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("orchestrator: node without name")
	}
	if n.Cluster == "" {
		return fmt.Errorf("orchestrator: node %q without cluster", n.Name)
	}
	if n.CPUCores <= 0 || n.MemBytes <= 0 || n.GPUs < 0 {
		return fmt.Errorf("orchestrator: node %q has invalid resources", n.Name)
	}
	return nil
}

// NodeStatus is a node's telemetry report. The hardware fields are all
// today's orchestrators see; Services optionally carries the node's live
// application-metrics digest — the §6 extension that closes the QoS blind
// spot, letting app-aware policies read drop ratios straight from
// heartbeats.
type NodeStatus struct {
	CPUUtil       float64   `json:"cpu_util"`
	GPUUtil       float64   `json:"gpu_util"`
	MemUsed       int64     `json:"mem_used"`
	LastHeartbeat time.Time `json:"last_heartbeat"`
	// Services is the per-service application telemetry digest hosted on
	// this node (empty when the node exports hardware metrics only).
	Services []ServiceTelemetry `json:"services,omitempty"`
	// Routes is the node's forwarder-side view of downstream replicas:
	// one entry per (service, replica address) routing window. Where
	// Services reports how this node's own workers fare, Routes reports
	// how the replicas this node sends to respond — the signal that lets
	// the root tell a sick replica from a sick service.
	Routes []ReplicaTelemetry `json:"routes,omitempty"`
}

// ServiceTelemetry is one service's application-level digest as carried in
// a heartbeat: ingress counters, drop ratio, live queue depth, and the p95
// service latency from the node's streaming histogram.
type ServiceTelemetry struct {
	Service   string  `json:"service"`
	Arrived   uint64  `json:"arrived"`
	Processed uint64  `json:"processed"`
	Dropped   uint64  `json:"dropped"`
	DropRatio float64 `json:"drop_ratio"`
	QueueLen  int64   `json:"queue_len"`
	P95Micros uint64  `json:"p95_us"`
	P99Micros uint64  `json:"p99_us,omitempty"`
	// AdmissionDrops counts ingress frames refused by admission control —
	// reported separately from Dropped so the distress drop ratio
	// reflects the service's health, not the controller's own refusals.
	AdmissionDrops uint64 `json:"admission_drops,omitempty"`
	// Replicas is the per-replica breakdown merged from the forwarder
	// windows every live node reported (AppTelemetry fills it; heartbeats
	// carry the raw windows in NodeStatus.Routes instead).
	Replicas []ReplicaTelemetry `json:"replicas,omitempty"`
}

// ReplicaTelemetry is one downstream replica as seen by the forwarders
// routing to it: the live window summary (EWMA latency, loss ratio,
// health state, selection weight) plus the raw outcome counters. In a
// heartbeat it is one node's view; in AppTelemetry it is the merge
// across all observing nodes.
type ReplicaTelemetry struct {
	Service       string  `json:"service"`
	Replica       string  `json:"replica"` // the replica's ingress address
	State         string  `json:"state"`
	Weight        float64 `json:"weight"`
	LatencyMicros uint64  `json:"latency_us"`
	LossRatio     float64 `json:"loss_ratio"`
	Sent          uint64  `json:"sent"`
	Acked         uint64  `json:"acked"`
	Lost          uint64  `json:"lost"`
	SendErrors    uint64  `json:"send_errors"`
	// Observers is how many live nodes reported a window for this
	// replica (set by the root's merge, zero in raw heartbeats).
	Observers int `json:"observers,omitempty"`
}

// ServiceAdmission is one service's admission verdict as carried on a
// heartbeat response — the control plane's downlink to the sidecars.
type ServiceAdmission struct {
	Service string `json:"service"`
	// State is the wire form of core.AdmitState: "admit", "degrade",
	// "reject". Unknown strings must be treated as "admit".
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
}

// HeartbeatResponse is the orchestrator's reply to a heartbeat: the
// current admission verdicts for every service under admission control.
// Services absent from the list are admitted — a node applies the list
// and resets everything else to admit, so a controller restart can never
// wedge a service shut.
type HeartbeatResponse struct {
	Admissions []ServiceAdmission `json:"admissions,omitempty"`
}

// TelemetryFromDigests converts a node registry's live service digests
// into the heartbeat representation — what a node agent puts in
// NodeStatus.Services.
func TelemetryFromDigests(ds []obs.ServiceDigest) []ServiceTelemetry {
	if len(ds) == 0 {
		return nil
	}
	out := make([]ServiceTelemetry, 0, len(ds))
	for _, d := range ds {
		out = append(out, ServiceTelemetry{
			Service:        d.Service,
			Arrived:        d.Arrived,
			Processed:      d.Processed,
			Dropped:        d.Dropped,
			DropRatio:      d.DropRatio,
			QueueLen:       d.QueueLen,
			P95Micros:      d.P95Micros,
			P99Micros:      d.P99Micros,
			AdmissionDrops: d.AdmissionDrops,
		})
	}
	return out
}

// RouteTelemetry converts a router's route-window digest into the
// heartbeat representation — what a node agent puts in
// NodeStatus.Routes.
func RouteTelemetry(digests []routestats.RouteDigest) []ReplicaTelemetry {
	if len(digests) == 0 {
		return nil
	}
	out := make([]ReplicaTelemetry, 0, len(digests))
	for _, d := range digests {
		out = append(out, ReplicaTelemetry{
			Service:       d.Step,
			Replica:       d.Replica,
			State:         d.State,
			Weight:        d.Weight,
			LatencyMicros: d.LatencyMicros,
			LossRatio:     d.LossRatio,
			Sent:          d.Sent,
			Acked:         d.Acked,
			Lost:          d.Lost,
			SendErrors:    d.SendErrors,
		})
	}
	return out
}

// Requirements constrain where a microservice may be placed.
type Requirements struct {
	MemBytes int64 `json:"mem_bytes"`
	NeedsGPU bool  `json:"needs_gpu"`
	// GPUArchIn lists architectures the service image is compiled for;
	// empty means any (or none needed).
	GPUArchIn []string `json:"gpu_arch_in,omitempty"`
	// Clusters restricts candidate clusters; empty means any.
	Clusters []string `json:"clusters,omitempty"`
	// Machines pins candidate machines in priority order; empty means
	// any. The paper's experiments pin every placement explicitly.
	Machines []string `json:"machines,omitempty"`
}

// ServiceSLA describes one microservice in an application SLA.
type ServiceSLA struct {
	Name         string       `json:"microservice_name"`
	Image        string       `json:"image"`
	Replicas     int          `json:"replicas"`
	Requirements Requirements `json:"requirements"`
}

// Validate reports SLA errors.
func (s ServiceSLA) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("orchestrator: microservice without name")
	}
	if s.Replicas <= 0 {
		return fmt.Errorf("orchestrator: microservice %q has %d replicas", s.Name, s.Replicas)
	}
	if s.Requirements.MemBytes < 0 {
		return fmt.Errorf("orchestrator: microservice %q has negative memory demand", s.Name)
	}
	return nil
}

// SLA is an application-level service agreement: the unit of deployment.
type SLA struct {
	AppName       string       `json:"app_name"`
	Microservices []ServiceSLA `json:"microservices"`
}

// Validate reports SLA errors.
func (s SLA) Validate() error {
	if s.AppName == "" {
		return fmt.Errorf("orchestrator: SLA without app name")
	}
	if len(s.Microservices) == 0 {
		return fmt.Errorf("orchestrator: SLA %q has no microservices", s.AppName)
	}
	seen := make(map[string]bool)
	for _, ms := range s.Microservices {
		if err := ms.Validate(); err != nil {
			return err
		}
		if seen[ms.Name] {
			return fmt.Errorf("orchestrator: SLA %q repeats microservice %q", s.AppName, ms.Name)
		}
		seen[ms.Name] = true
	}
	return nil
}

// InstanceState tracks an instance through its lifecycle.
type InstanceState string

// Instance lifecycle states.
const (
	StateScheduled InstanceState = "scheduled"
	StateRunning   InstanceState = "running"
	StateFailed    InstanceState = "failed"
)

// Instance is one scheduled replica of a microservice.
type Instance struct {
	App     string        `json:"app"`
	Service string        `json:"service"`
	Replica int           `json:"replica"`
	Node    string        `json:"node"`
	State   InstanceState `json:"state"`
}

// Key uniquely identifies the instance slot.
func (i Instance) Key() string {
	return fmt.Sprintf("%s/%s/%d", i.App, i.Service, i.Replica)
}

// Deployment is the scheduling outcome for one SLA.
type Deployment struct {
	App       string     `json:"app"`
	Instances []Instance `json:"instances"`
}
