package appaware

import (
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/sim"
	"github.com/edge-mar/scatter/internal/testbed"
)

// BenchmarkAutoscalePolicy is the control-loop quality headline: the same
// 4-client saturation ramp on E1 (scAtteR++ mode) with no loop (static)
// and under the hardware and qos policies, with E2 available for
// scale-out. Each sub-benchmark reports
//
//	fps        — delivered frames per second per client over the run
//	             (the paper targets 30)
//	react_s    — virtual seconds until the first applied scale-out; the
//	             full run length when the policy never acts
//	actions    — replicas added over the run
//
// which shows how much QoS each policy buys per action (the recorded
// values are in EXPERIMENTS.md). In this queued (scAtteR++) collapse the shared GPU does
// saturate, so the utilization baseline eventually fires — but it scales
// the busiest-by-ingress stage rather than the distressed one, spending
// more actions for less delivered FPS than the app-aware policy.
func BenchmarkAutoscalePolicy(b *testing.B) {
	const duration = 60 * time.Second
	cases := []struct {
		name   string
		policy Policy
	}{
		{"static", nil},
		{"hardware", HardwarePolicy{}},
		{"qos", QoSPolicy{}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var fps, react, actions float64
			for i := 0; i < b.N; i++ {
				w := newWorld(42)
				p := core.NewPipeline(w.eng, w.fabric, w.col, core.PlaceAll(w.e1),
					core.DefaultProfiles(), core.Options{Mode: core.ModeScatterPP})
				for c := 0; c < 4; c++ {
					p.AddClient(core.ClientConfig{
						ID: uint32(c + 1), FPS: 30,
						Start: sim.Time(c) * 5 * time.Second,
						Stop:  duration,
					})
				}
				var events []ScaleEvent
				var a *Autoscaler
				if tc.policy != nil {
					a = New(w.eng, p, w.col, LoopConfig{Policy: tc.policy}, Config{
						Period: 5 * time.Second,
						Hosts:  []*testbed.Machine{w.e2},
					})
					a.Start(duration)
				}
				w.eng.Run(duration + 500*time.Millisecond)
				if a != nil {
					events = a.Events()
				}
				_, machines := p.Usage()
				s := w.col.Summarize(duration, 4, machines)
				fps = s.FPSPerClient
				react = duration.Seconds()
				actions = 0
				for _, ev := range events {
					if ev.Admission || ev.Verb != VerbScaleUp {
						continue
					}
					if actions == 0 {
						react = SimTime(ev.At).Seconds()
					}
					actions++
				}
			}
			b.ReportMetric(fps, "fps")
			b.ReportMetric(react, "react_s")
			b.ReportMetric(actions, "actions")
		})
	}
}
