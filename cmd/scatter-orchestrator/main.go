// Command scatter-orchestrator runs the Oakestra-style root orchestrator
// with its HTTP control plane: node registration, SLA deployment with
// hardware constraints, heartbeat monitoring, and automatic failure
// re-deployment.
//
// Usage:
//
//	scatter-orchestrator -listen :8600 -heartbeat-timeout 5s
//
// Node agents register via POST /api/v1/nodes and heartbeat via
// POST /api/v1/nodes/{name}/heartbeat; applications deploy by POSTing an
// SLA document to /api/v1/apps. The same listener also serves /healthz,
// Prometheus-style /metrics (node liveness plus the per-service
// application telemetry aggregated from heartbeats), the aggregated JSON
// at /api/v1/telemetry, /debug/vars, and /debug/pprof.
//
// With -autoscale the root also runs the live app-aware control loop:
// every -autoscale-period it windows the merged heartbeat telemetry,
// lets the chosen policy (hardware | qos) decide, and scales the
// distressed services of -autoscale-app through the scheduler up to
// -autoscale-max replicas (idle services retire down to -autoscale-min
// when -autoscale-scaledown is set). -admission escalates to admission
// control when scale-out is capped or unschedulable: per-service
// admit/degrade/reject verdicts ride back to the nodes on heartbeat
// responses and are enforced at sidecar ingress. The loop's status is
// served at /api/v1/autoscaler and as scatter_autoscale_* on /metrics.
package main

import (
	"context"
	"expvar"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"github.com/edge-mar/scatter/internal/appaware"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/orchestrator"
)

func main() {
	listen := flag.String("listen", ":8600", "control-plane listen address")
	hbTimeout := flag.Duration("heartbeat-timeout", 5*time.Second,
		"mark nodes dead after this silence and re-deploy their services")
	detectEvery := flag.Duration("detect-every", 2*time.Second, "failure-detection interval")
	autoscale := flag.String("autoscale", "",
		"autoscaling policy: hardware (utilization thresholds) or qos (windowed drop ratio + p95); empty disables the loop")
	asApp := flag.String("autoscale-app", "scatter", "application the control loop manages")
	asPeriod := flag.Duration("autoscale-period", 2*time.Second, "control-loop evaluation interval")
	asMax := flag.Int("autoscale-max", 3, "replica cap per service")
	asMin := flag.Int("autoscale-min", 1, "replica floor for scale-in")
	asDropThresh := flag.Float64("autoscale-drop-threshold", 0,
		"qos: windowed drop-ratio trigger (0 = policy default 0.1)")
	asP95 := flag.Uint64("autoscale-p95-us", 0,
		"qos: p95 service-latency trigger in microseconds (0 disables the latency arm)")
	asScaleDown := flag.Bool("autoscale-scaledown", false, "qos: retire replicas of idle services")
	admission := flag.Bool("admission", false,
		"escalate to admission control (degrade/reject at sidecar ingress) when scale-out is exhausted")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	root := orchestrator.NewRoot(
		orchestrator.WithHeartbeatTimeout(*hbTimeout),
		orchestrator.WithHooks(orchestrator.Hooks{
			OnSchedule: func(in orchestrator.Instance) {
				log.Info("scheduled", "instance", in.Key(), "node", in.Node)
			},
			OnRemove: func(in orchestrator.Instance) {
				log.Info("removed", "instance", in.Key(), "node", in.Node)
			},
		}),
	)
	api := orchestrator.NewAPIServer(root)

	if *autoscale != "" {
		var policy appaware.Policy
		switch *autoscale {
		case "hardware":
			policy = appaware.HardwarePolicy{}
		case "qos":
			policy = appaware.QoSPolicy{
				DropThreshold:      *asDropThresh,
				P95ThresholdMicros: *asP95,
				EnableScaleDown:    *asScaleDown,
			}
		default:
			log.Error("unknown autoscale policy", "policy", *autoscale)
			os.Exit(2)
		}
		as := orchestrator.NewAutoscaler(root, appaware.LoopConfig{
			Policy:           policy,
			MaxReplicas:      *asMax,
			MinReplicas:      *asMin,
			AdmissionEnabled: *admission,
		}, orchestrator.AutoscalerConfig{
			App:    *asApp,
			Period: *asPeriod,
			OnAdmission: func(service string, state core.AdmitState, reason string) {
				log.Warn("admission verdict", "service", service,
					"state", state.String(), "reason", reason)
			},
		})
		api.SetAutoscaler(as)
		go as.Run(context.Background())
		log.Info("autoscaler armed", "policy", policy.Name(), "app", *asApp,
			"period", *asPeriod, "max_replicas", *asMax, "admission", *admission)
	}

	go func() {
		ticker := time.NewTicker(*detectEvery)
		defer ticker.Stop()
		for now := range ticker.C {
			for _, inst := range root.DetectFailures(now) {
				log.Warn("migrated after node failure", "instance", inst.Key(), "node", inst.Node)
			}
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	log.Info("root orchestrator listening", "addr", *listen)
	if err := http.ListenAndServe(*listen, mux); err != nil {
		log.Error("serve", "err", err)
		os.Exit(1)
	}
}
