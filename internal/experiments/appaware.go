package experiments

import (
	"fmt"
	"time"

	"github.com/edge-mar/scatter/internal/appaware"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/sim"
	"github.com/edge-mar/scatter/internal/testbed"
)

// AppAwarePoint is one autoscaling-comparison run.
type AppAwarePoint struct {
	Mode    core.Mode
	Policy  string
	Summary SummaryLike
	Events  []appaware.ScaleEvent
}

// SummaryLike carries the fields the app-aware report needs.
type SummaryLike struct {
	FPSAggregate float64
	FPSPerClient float64
	SuccessRate  float64
	E2EMeanMS    float64
}

// AppAware runs the paper's §6 future-work proposal as an experiment:
// a client ramp against (a) a static deployment, (b) a hardware-
// threshold autoscaler (today's orchestrators), and (c) a QoS-driven
// autoscaler consuming sidecar analytics — for both scAtteR and
// scAtteR++. The contrast makes insights (I) and (IV) quantitative: the
// hardware policy never reacts because the collapse is invisible in
// utilization, while the QoS policy scales the distressed service.
func AppAware(duration time.Duration) ([]AppAwarePoint, Report) {
	if duration <= 0 {
		duration = 90 * time.Second
	}
	const clients = 6
	type variant struct {
		label  string
		policy appaware.Policy
	}
	variants := []variant{
		{"static", nil},
		{"hardware", appaware.HardwarePolicy{}},
		{"qos", appaware.QoSPolicy{}},
	}
	var pts []AppAwarePoint
	table := Table{
		Title: fmt.Sprintf("client ramp to %d over %v, scale-out hosts: E2", clients, duration),
		Header: []string{"system", "policy", "agg-fps", "fps/client", "success",
			"e2e(ms)", "scale-outs"},
	}
	for _, mode := range []core.Mode{core.ModeScatter, core.ModeScatterPP} {
		for _, v := range variants {
			w := NewWorld(1400)
			p := core.NewPipeline(w.Eng, w.Fabric, w.Col, core.PlaceAll(w.E1),
				core.DefaultProfiles(), core.Options{Mode: mode})
			step := duration / time.Duration(clients)
			for i := 0; i < clients; i++ {
				p.AddClient(core.ClientConfig{
					ID:    uint32(i + 1),
					FPS:   30,
					Start: sim.Time(i) * step,
					Stop:  duration,
				})
			}
			var scaler *appaware.Autoscaler
			if v.policy != nil {
				scaler = appaware.New(w.Eng, p, w.Col, appaware.LoopConfig{Policy: v.policy}, appaware.Config{
					Period: 5 * time.Second,
					Hosts:  []*testbed.Machine{w.E2},
				})
				scaler.Start(duration)
			}
			w.Eng.Run(duration + 500*time.Millisecond)
			_, machines := p.Usage()
			s := w.Col.Summarize(duration, clients, machines)
			pt := AppAwarePoint{
				Mode:   mode,
				Policy: v.label,
				Summary: SummaryLike{
					FPSAggregate: s.FPSAggregate,
					FPSPerClient: s.FPSPerClient,
					SuccessRate:  s.SuccessRate,
					E2EMeanMS:    float64(s.E2EMean) / float64(time.Millisecond),
				},
			}
			if scaler != nil {
				pt.Events = scaler.Events()
			}
			pts = append(pts, pt)
			table.Rows = append(table.Rows, []string{
				mode.String(), v.label,
				f1(pt.Summary.FPSAggregate), f1(pt.Summary.FPSPerClient),
				pct(pt.Summary.SuccessRate), f1(pt.Summary.E2EMeanMS),
				fmt.Sprintf("%d", len(pt.Events)),
			})
		}
	}
	events := Table{
		Title:  "scale-out events (qos policy)",
		Header: []string{"system", "t(s)", "service", "host", "reason"},
	}
	for _, pt := range pts {
		if pt.Policy != "qos" {
			continue
		}
		for _, ev := range pt.Events {
			events.Rows = append(events.Rows, []string{
				pt.Mode.String(), f1(appaware.SimTime(ev.At).Seconds()), ev.Step.String(), ev.Machine, ev.Reason,
			})
		}
	}
	r := Report{
		ID:    "appaware",
		Title: "Application-aware orchestration (paper §6 future work)",
		Notes: `Extension beyond the paper's evaluation: the sidecar exports drop
		ratios through predefined hooks and an autoscaler acts on them. Under
		scAtteR's busy-drop collapse the devices stay underutilized, so the
		hardware-threshold policy (what utilization-only orchestrators can do)
		never fires — insight (I)/(IV). Under scAtteR++'s queued collapse the
		shared GPU does saturate and correctly windowed utilization eventually
		trips the hardware policy, but it scales the busiest-by-ingress
		service rather than the distressed one, needing more actions for less
		gain than the QoS policy, which scales the distressed stage directly;
		the overall gain is large for scAtteR++ and limited for scAtteR
		(state tie-ins, insight III).`,
		Tables: []Table{table, events},
	}
	return pts, r
}
