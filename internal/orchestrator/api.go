package orchestrator

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/edge-mar/scatter/internal/appaware"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/obs/routestats"
)

// APIServer exposes the root orchestrator over HTTP/JSON — the control
// plane node agents and operators talk to, mirroring Oakestra's root API.
//
//	POST   /api/v1/nodes                  register a worker node
//	GET    /api/v1/nodes                  list nodes
//	POST   /api/v1/nodes/{name}/heartbeat ingest telemetry
//	GET    /api/v1/nodes/{name}/status    last telemetry
//	POST   /api/v1/apps                   deploy an SLA
//	GET    /api/v1/apps/{name}            current deployment
//	DELETE /api/v1/apps/{name}            undeploy
//	POST   /api/v1/failures/detect        run failure detection
//	GET    /api/v1/autoscaler             control-loop status (404 without one)
type APIServer struct {
	root *Root
	mux  *http.ServeMux
	// now is injectable for tests.
	now func() time.Time
	// autoscaler is the attached control loop (SetAutoscaler); nil serves
	// 404 on /api/v1/autoscaler.
	autoscaler *Autoscaler
}

// NewAPIServer wraps a Root with the HTTP control plane.
func NewAPIServer(root *Root) *APIServer {
	s := &APIServer{root: root, mux: http.NewServeMux(), now: time.Now}
	s.mux.HandleFunc("POST /api/v1/nodes", s.registerNode)
	s.mux.HandleFunc("GET /api/v1/nodes", s.listNodes)
	s.mux.HandleFunc("POST /api/v1/nodes/{name}/heartbeat", s.heartbeat)
	s.mux.HandleFunc("GET /api/v1/nodes/{name}/status", s.nodeStatus)
	s.mux.HandleFunc("POST /api/v1/apps", s.deploy)
	s.mux.HandleFunc("GET /api/v1/apps/{name}", s.deployment)
	s.mux.HandleFunc("DELETE /api/v1/apps/{name}", s.undeploy)
	s.mux.HandleFunc("POST /api/v1/failures/detect", s.detectFailures)
	s.mux.HandleFunc("GET /api/v1/telemetry", s.telemetry)
	s.mux.HandleFunc("GET /api/v1/autoscaler", s.autoscalerStatus)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// Handler returns the API's HTTP handler.
func (s *APIServer) Handler() http.Handler { return s.mux }

// SetAutoscaler attaches a control loop so the API exposes its status at
// /api/v1/autoscaler and as scatter_autoscale_* on /metrics.
func (s *APIServer) SetAutoscaler(a *Autoscaler) { s.autoscaler = a }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownApp), errors.Is(err, ErrUnknownNode):
		code = http.StatusNotFound
	case errors.Is(err, ErrDuplicateApp), errors.Is(err, ErrDuplicateNode):
		code = http.StatusConflict
	case errors.Is(err, ErrUnschedulable):
		code = http.StatusUnprocessableEntity
	default:
		// Validation failures map to 400 by default.
		code = http.StatusBadRequest
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("orchestrator: decode request: %w", err)
	}
	return nil
}

func (s *APIServer) registerNode(w http.ResponseWriter, r *http.Request) {
	var info NodeInfo
	if err := decodeBody(r, &info); err != nil {
		writeError(w, err)
		return
	}
	if err := s.root.RegisterNode(info, s.now()); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *APIServer) listNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.root.Nodes())
}

func (s *APIServer) heartbeat(w http.ResponseWriter, r *http.Request) {
	var status NodeStatus
	if err := decodeBody(r, &status); err != nil {
		writeError(w, err)
		return
	}
	if status.LastHeartbeat.IsZero() {
		status.LastHeartbeat = s.now()
	}
	if err := s.root.Heartbeat(r.PathValue("name"), status); err != nil {
		writeError(w, err)
		return
	}
	// The response is the control plane's downlink: current admission
	// verdicts for every service under admission control. An empty list
	// means everything is admitted.
	writeJSON(w, http.StatusOK, HeartbeatResponse{Admissions: s.root.Admissions()})
}

func (s *APIServer) nodeStatus(w http.ResponseWriter, r *http.Request) {
	status, err := s.root.Status(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *APIServer) deploy(w http.ResponseWriter, r *http.Request) {
	var sla SLA
	if err := decodeBody(r, &sla); err != nil {
		writeError(w, err)
		return
	}
	d, err := s.root.Deploy(sla)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, d)
}

func (s *APIServer) deployment(w http.ResponseWriter, r *http.Request) {
	d, err := s.root.Deployment(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (s *APIServer) undeploy(w http.ResponseWriter, r *http.Request) {
	if err := s.root.Undeploy(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *APIServer) detectFailures(w http.ResponseWriter, r *http.Request) {
	migrated := s.root.DetectFailures(s.now())
	if migrated == nil {
		migrated = []Instance{}
	}
	writeJSON(w, http.StatusOK, migrated)
}

func (s *APIServer) telemetry(w http.ResponseWriter, r *http.Request) {
	t := s.root.AppTelemetry()
	if t == nil {
		t = []ServiceTelemetry{}
	}
	writeJSON(w, http.StatusOK, t)
}

func (s *APIServer) autoscalerStatus(w http.ResponseWriter, r *http.Request) {
	if s.autoscaler == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		obs.AutoscaleDigest
		Events []appaware.ScaleEvent `json:"events,omitempty"`
	}{s.autoscaler.Status(), s.autoscaler.Events()})
}

func (s *APIServer) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// metrics renders the root's fleet view in Prometheus text exposition
// format: node liveness plus the per-service application telemetry
// aggregated from heartbeats.
func (s *APIServer) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	alive, dead := s.root.NodeCounts()
	fmt.Fprintf(w, "# TYPE scatter_orchestrator_nodes gauge\n")
	fmt.Fprintf(w, "scatter_orchestrator_nodes{state=\"alive\"} %d\n", alive)
	fmt.Fprintf(w, "scatter_orchestrator_nodes{state=\"dead\"} %d\n", dead)
	if s.autoscaler != nil {
		obs.WriteAutoscaleText(w, s.autoscaler.Status())
	}
	tel := s.root.AppTelemetry()
	if len(tel) == 0 {
		return
	}
	for _, name := range []string{"arrived", "processed", "dropped", "admission_dropped"} {
		fmt.Fprintf(w, "# TYPE scatter_app_service_%s_total counter\n", name)
	}
	fmt.Fprintf(w, "# TYPE scatter_app_service_drop_ratio gauge\n")
	fmt.Fprintf(w, "# TYPE scatter_app_service_queue_len gauge\n")
	fmt.Fprintf(w, "# TYPE scatter_app_service_latency_p95_seconds gauge\n")
	for _, t := range tel {
		l := fmt.Sprintf("{service=%q}", t.Service)
		fmt.Fprintf(w, "scatter_app_service_arrived_total%s %d\n", l, t.Arrived)
		fmt.Fprintf(w, "scatter_app_service_processed_total%s %d\n", l, t.Processed)
		fmt.Fprintf(w, "scatter_app_service_dropped_total%s %d\n", l, t.Dropped)
		fmt.Fprintf(w, "scatter_app_service_admission_dropped_total%s %d\n", l, t.AdmissionDrops)
		fmt.Fprintf(w, "scatter_app_service_drop_ratio%s %g\n", l, t.DropRatio)
		fmt.Fprintf(w, "scatter_app_service_queue_len%s %d\n", l, t.QueueLen)
		fmt.Fprintf(w, "scatter_app_service_latency_p95_seconds%s %g\n", l, float64(t.P95Micros)/1e6)
	}
	replicas := false
	for _, t := range tel {
		if len(t.Replicas) > 0 {
			replicas = true
			break
		}
	}
	if !replicas {
		return
	}
	for _, name := range []string{"sent", "acked", "lost", "send_errors"} {
		fmt.Fprintf(w, "# TYPE scatter_app_replica_%s_total counter\n", name)
	}
	fmt.Fprintf(w, "# TYPE scatter_app_replica_state gauge\n")
	fmt.Fprintf(w, "# TYPE scatter_app_replica_weight gauge\n")
	fmt.Fprintf(w, "# TYPE scatter_app_replica_loss_ratio gauge\n")
	fmt.Fprintf(w, "# TYPE scatter_app_replica_latency_seconds gauge\n")
	fmt.Fprintf(w, "# TYPE scatter_app_replica_observers gauge\n")
	for _, t := range tel {
		for _, rt := range t.Replicas {
			l := fmt.Sprintf("{service=%q,replica=%q}", rt.Service, rt.Replica)
			fmt.Fprintf(w, "scatter_app_replica_sent_total%s %d\n", l, rt.Sent)
			fmt.Fprintf(w, "scatter_app_replica_acked_total%s %d\n", l, rt.Acked)
			fmt.Fprintf(w, "scatter_app_replica_lost_total%s %d\n", l, rt.Lost)
			fmt.Fprintf(w, "scatter_app_replica_send_errors_total%s %d\n", l, rt.SendErrors)
			fmt.Fprintf(w, "scatter_app_replica_state%s %d\n", l, routestats.ParseState(rt.State).Rank())
			fmt.Fprintf(w, "scatter_app_replica_weight%s %g\n", l, rt.Weight)
			fmt.Fprintf(w, "scatter_app_replica_loss_ratio%s %g\n", l, rt.LossRatio)
			fmt.Fprintf(w, "scatter_app_replica_latency_seconds%s %g\n", l, float64(rt.LatencyMicros)/1e6)
			fmt.Fprintf(w, "scatter_app_replica_observers%s %d\n", l, rt.Observers)
		}
	}
}
