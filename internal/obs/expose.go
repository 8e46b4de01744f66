package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"github.com/edge-mar/scatter/internal/obs/routestats"
)

// Handler exposes a registry (and optionally a span recorder) over HTTP:
//
//	GET /metrics       text exposition (Prometheus-style lines)
//	GET /metrics.json  JSON digest (the heartbeat payload, plus buckets)
//	GET /healthz       liveness probe
//	GET /routes        per-replica routing windows, aligned text table
//	GET /routes.json   the same as JSON (404 without a route source)
//	GET /spans         recorded spans as JSON (404 without a recorder)
//	GET /spans.trace   recorded spans as Chrome trace_event JSON
//	GET /debug/vars    expvar
//	GET /debug/pprof/  runtime profiles
//
// rec may be nil; span endpoints then report 404.
func Handler(reg *Registry, rec *Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeTextMetrics(w, reg)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(jsonMetrics(reg))
	})
	mux.HandleFunc("GET /routes", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteRouteTable(w, reg.RouteDigests())
	})
	mux.HandleFunc("GET /routes.json", func(w http.ResponseWriter, r *http.Request) {
		digests := reg.RouteDigests()
		if digests == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(digests)
	})
	mux.HandleFunc("GET /spans", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rec.Spans())
	})
	mux.HandleFunc("GET /spans.trace", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, rec.Spans())
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr ("host:port", port 0 for ephemeral) and serves
// Handler(reg, rec) until the returned server is closed. It returns the
// bound address.
func Serve(addr string, reg *Registry, rec *Recorder) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg, rec)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// writeTextMetrics renders the Prometheus-style text exposition. Metric
// names follow scatter_<instrument>{service="..."} with durations in
// seconds, as the ecosystem expects.
func writeTextMetrics(w http.ResponseWriter, reg *Registry) {
	fmt.Fprintf(w, "# TYPE scatter_uptime_seconds gauge\n")
	fmt.Fprintf(w, "scatter_uptime_seconds %g\n", time.Since(reg.Start()).Seconds())
	fmt.Fprintf(w, "# TYPE scatter_frames_sent_total counter\n")
	fmt.Fprintf(w, "scatter_frames_sent_total %d\n", reg.FramesSent.Value())
	fmt.Fprintf(w, "# TYPE scatter_frames_delivered_total counter\n")
	fmt.Fprintf(w, "scatter_frames_delivered_total %d\n", reg.FramesDelivered.Value())
	for _, name := range reg.ServiceNames() {
		m := reg.Service(name)
		label := fmt.Sprintf("{service=%q}", name)
		fmt.Fprintf(w, "scatter_service_arrived_total%s %d\n", label, m.Arrived.Value())
		fmt.Fprintf(w, "scatter_service_processed_total%s %d\n", label, m.Processed.Value())
		fmt.Fprintf(w, "scatter_service_dropped_total%s %d\n", label, m.Dropped.Value())
		fmt.Fprintf(w, "scatter_service_errors_total%s %d\n", label, m.Errors.Value())
		fmt.Fprintf(w, "scatter_service_queue_len%s %d\n", label, m.QueueLen.Value())
		writeTextHistogram(w, "scatter_service_queue_seconds", name, &m.QueueLat)
		writeTextHistogram(w, "scatter_service_proc_seconds", name, &m.ProcLat)
		writeTextHistogram(w, "scatter_service_latency_seconds", name, &m.SvcLat)
	}
	writeTextRoutes(w, reg.RouteDigests())
	if d, ok := reg.FastPathDigest(); ok {
		writeTextFastPath(w, d)
	}
	if d, ok := reg.AdmissionDigest(); ok {
		writeTextAdmission(w, d)
	}
}

func writeTextHistogram(w http.ResponseWriter, metric, service string, h *Histogram) {
	var cum uint64
	for _, b := range h.Buckets() {
		cum += b.Count
		le := "+Inf"
		if b.UpperBound > 0 {
			le = fmt.Sprintf("%g", b.UpperBound.Seconds())
		}
		fmt.Fprintf(w, "%s_bucket{service=%q,le=%q} %d\n", metric, service, le, cum)
	}
	fmt.Fprintf(w, "%s_sum{service=%q} %g\n", metric, service, h.Sum().Seconds())
	fmt.Fprintf(w, "%s_count{service=%q} %d\n", metric, service, h.Count())
	for _, q := range []float64{0.50, 0.95, 0.99} {
		fmt.Fprintf(w, "%s{service=%q,quantile=\"%g\"} %g\n",
			metric, service, q, h.Quantile(q).Seconds())
	}
}

// jsonSnapshot is the /metrics.json document.
type jsonSnapshot struct {
	UptimeSeconds   float64                  `json:"uptime_seconds"`
	FramesSent      uint64                   `json:"frames_sent"`
	FramesDelivered uint64                   `json:"frames_delivered"`
	Services        []jsonServiceSnap        `json:"services"`
	Routes          []routestats.RouteDigest `json:"routes,omitempty"`
	FastPath        *FastPathDigest          `json:"fastpath,omitempty"`
	Admission       *AdmissionDigest         `json:"admission,omitempty"`
}

type jsonServiceSnap struct {
	ServiceDigest
	QueueP95Micros uint64 `json:"queue_p95_us"`
	ProcP95Micros  uint64 `json:"proc_p95_us"`
}

func jsonMetrics(reg *Registry) jsonSnapshot {
	snap := jsonSnapshot{
		UptimeSeconds:   time.Since(reg.Start()).Seconds(),
		FramesSent:      reg.FramesSent.Value(),
		FramesDelivered: reg.FramesDelivered.Value(),
	}
	digests := reg.Digest()
	sort.Slice(digests, func(i, j int) bool { return digests[i].Service < digests[j].Service })
	for _, d := range digests {
		m := reg.Service(d.Service)
		snap.Services = append(snap.Services, jsonServiceSnap{
			ServiceDigest:  d,
			QueueP95Micros: uint64(m.QueueLat.Quantile(0.95) / time.Microsecond),
			ProcP95Micros:  uint64(m.ProcLat.Quantile(0.95) / time.Microsecond),
		})
	}
	snap.Routes = reg.RouteDigests()
	if d, ok := reg.FastPathDigest(); ok {
		snap.FastPath = &d
	}
	if d, ok := reg.AdmissionDigest(); ok {
		snap.Admission = &d
	}
	return snap
}
