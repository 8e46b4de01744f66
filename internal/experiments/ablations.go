package experiments

import (
	"fmt"
	"time"

	"github.com/edge-mar/scatter/internal/core"
)

// AblationPoint is one parameter setting's measured outcome.
type AblationPoint struct {
	Param   string
	Value   time.Duration
	ValueN  int // for integer-valued ablations (queue capacity)
	Clients int
	Summary SummaryDigest
}

// SummaryDigest carries the ablation-relevant metrics.
type SummaryDigest struct {
	FPSPerClient  float64
	E2EMeanMS     float64
	E2EP95MS      float64
	SuccessRate   float64
	SiftMemBytes  int64
	DropThreshold uint64
	DropOverflow  uint64
	DropTimeout   uint64
}

func digest(pt RunPoint) SummaryDigest {
	s := pt.Summary
	return SummaryDigest{
		FPSPerClient:  s.FPSPerClient,
		E2EMeanMS:     float64(s.E2EMean) / float64(time.Millisecond),
		E2EP95MS:      float64(s.E2EP95) / float64(time.Millisecond),
		SuccessRate:   s.SuccessRate,
		SiftMemBytes:  pt.Services["sift"].MemBytes,
		DropThreshold: s.Drops["threshold"],
		DropOverflow:  s.Drops["overflow"],
		DropTimeout:   s.Drops["timeout"],
	}
}

// AblationThreshold sweeps the scAtteR++ sidecar latency threshold at
// 4 clients on E1: the knob trades delivered frame rate against bounded
// queueing delay (the paper fixes it at the 100 ms XR budget).
func AblationThreshold(duration time.Duration) ([]AblationPoint, Report) {
	thresholds := []time.Duration{
		25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 400 * time.Millisecond,
	}
	var pts []AblationPoint
	t := Table{
		Title:  "scAtteR++ on E1, 4 clients",
		Header: []string{"threshold", "fps/client", "e2e(ms)", "p95(ms)", "success", "thresh-drops"},
	}
	for _, th := range thresholds {
		pt := Run(RunSpec{
			Name: "threshold", Mode: core.ModeScatterPP, Placement: ConfigC1,
			Clients: 4, Duration: duration, Seed: 1500,
			Options: core.Options{Threshold: th},
		})
		ap := AblationPoint{Param: "threshold", Value: th, Clients: 4, Summary: digest(pt)}
		pts = append(pts, ap)
		t.Rows = append(t.Rows, []string{
			th.String(), f1(ap.Summary.FPSPerClient), f1(ap.Summary.E2EMeanMS),
			f1(ap.Summary.E2EP95MS), pct(ap.Summary.SuccessRate),
			fmt.Sprintf("%d", ap.Summary.DropThreshold),
		})
	}
	r := Report{
		ID:    "ablation-threshold",
		Title: "Ablation: sidecar latency threshold",
		Notes: `A tighter threshold bounds end-to-end latency but sheds more frames;
		a looser one converts drops into queueing delay. The paper's 100 ms
		sits at the XR tolerable-latency budget.`,
		Tables: []Table{t},
	}
	return pts, r
}

// AblationQueueCap sweeps the sidecar queue capacity: small queues shed
// load as overflow before the threshold filter ever sees it.
func AblationQueueCap(duration time.Duration) ([]AblationPoint, Report) {
	caps := []int{2, 8, 64, 256}
	var pts []AblationPoint
	t := Table{
		Title:  "scAtteR++ on E1, 4 clients, threshold 100ms",
		Header: []string{"queue-cap", "fps/client", "e2e(ms)", "overflow-drops", "thresh-drops"},
	}
	for _, c := range caps {
		pt := Run(RunSpec{
			Name: "queuecap", Mode: core.ModeScatterPP, Placement: ConfigC1,
			Clients: 4, Duration: duration, Seed: 1510,
			Options: core.Options{QueueCap: c},
		})
		ap := AblationPoint{Param: "queuecap", ValueN: c, Clients: 4, Summary: digest(pt)}
		pts = append(pts, ap)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c), f1(ap.Summary.FPSPerClient), f1(ap.Summary.E2EMeanMS),
			fmt.Sprintf("%d", ap.Summary.DropOverflow), fmt.Sprintf("%d", ap.Summary.DropThreshold),
		})
	}
	r := Report{
		ID:    "ablation-queuecap",
		Title: "Ablation: sidecar queue capacity",
		Notes: `Tiny queues overflow before the latency filter can act (more drops,
		lower latency); beyond a few tens of slots the threshold dominates and
		capacity stops mattering.`,
		Tables: []Table{t},
	}
	return pts, r
}

// AblationFetchTimeout sweeps how long scAtteR's matching busy-waits for
// sift's state: the paper's dependency loop is most destructive when
// matching blocks long on fetches that will never arrive.
func AblationFetchTimeout(duration time.Duration) ([]AblationPoint, Report) {
	timeouts := []time.Duration{
		10 * time.Millisecond, 30 * time.Millisecond,
		50 * time.Millisecond, 100 * time.Millisecond,
	}
	var pts []AblationPoint
	t := Table{
		Title:  "scAtteR on E1, 4 clients",
		Header: []string{"fetch-timeout", "fps/client", "success", "timeout-drops"},
	}
	for _, to := range timeouts {
		pt := Run(RunSpec{
			Name: "fetchtimeout", Mode: core.ModeScatter, Placement: ConfigC1,
			Clients: 4, Duration: duration, Seed: 1520,
			Options: core.Options{FetchTimeout: to},
		})
		ap := AblationPoint{Param: "fetchtimeout", Value: to, Clients: 4, Summary: digest(pt)}
		pts = append(pts, ap)
		t.Rows = append(t.Rows, []string{
			to.String(), f1(ap.Summary.FPSPerClient), pct(ap.Summary.SuccessRate),
			fmt.Sprintf("%d", ap.Summary.DropTimeout),
		})
	}
	r := Report{
		ID:    "ablation-fetchtimeout",
		Title: "Ablation: matching's state-fetch timeout (scAtteR)",
		Notes: `Long waits amplify the dependency loop: every failed fetch pins
		matching (and drops its ingress) for the full timeout. Short timeouts
		waste fewer matching-cycles per miss and sustain more throughput.`,
		Tables: []Table{t},
	}
	return pts, r
}

// AblationStateTimeout sweeps sift's state retention: longer retention
// costs memory (the paper's memory-constrained-edge concern) without
// buying success once matching's own timeout has long expired.
func AblationStateTimeout(duration time.Duration) ([]AblationPoint, Report) {
	timeouts := []time.Duration{
		250 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 4 * time.Second,
	}
	var pts []AblationPoint
	t := Table{
		Title:  "scAtteR on E1, 4 clients",
		Header: []string{"state-timeout", "fps/client", "success", "sift-mem(GB)"},
	}
	for _, to := range timeouts {
		pt := Run(RunSpec{
			Name: "statetimeout", Mode: core.ModeScatter, Placement: ConfigC1,
			Clients: 4, Duration: duration, Seed: 1530,
			Options: core.Options{StateTimeout: to},
		})
		ap := AblationPoint{Param: "statetimeout", Value: to, Clients: 4, Summary: digest(pt)}
		pts = append(pts, ap)
		t.Rows = append(t.Rows, []string{
			to.String(), f1(ap.Summary.FPSPerClient), pct(ap.Summary.SuccessRate),
			gb(ap.Summary.SiftMemBytes),
		})
	}
	r := Report{
		ID:    "ablation-statetimeout",
		Title: "Ablation: sift state retention (scAtteR)",
		Notes: `Retention far beyond matching's fetch window only accumulates dead
		state in memory — the side-effect the paper flags for memory-
		constrained edge hardware.`,
		Tables: []Table{t},
	}
	return pts, r
}

// FastExtractorProfiles returns the calibration with the detection stage
// replaced by a faster extractor (the paper's §5 "substituting SIFT with
// [a faster model]" discussion): roughly 2.3x faster detection, a fixed
// calibration (EXPERIMENTS.md, "Removed: ORB extractor and recognition
// cache", records what it was measured against).
func FastExtractorProfiles() core.Profiles {
	p := core.DefaultProfiles()
	p[1].CPUTime = 2 * time.Millisecond // sift step
	p[1].GPUTime = 4 * time.Millisecond
	return p
}

// AblationFastModel compares the default SIFT-calibrated pipeline to the
// faster-extractor calibration across 1-10 clients (scAtteR++ on E1):
// the saturation point shifts right, but without the horizontally
// scalable design the same collapse eventually appears — the paper's §5
// argument.
func AblationFastModel(duration time.Duration) ([]AblationPoint, Report) {
	fast := FastExtractorProfiles()
	variants := []struct {
		label    string
		profiles *core.Profiles
	}{
		{"sift", nil},
		{"fast", &fast},
	}
	var pts []AblationPoint
	t := Table{
		Title:  "scAtteR++ on E1, clients 1-10",
		Header: []string{"extractor", "clients", "fps/client", "success"},
	}
	for _, v := range variants {
		for _, n := range []int{1, 2, 4, 6, 8, 10} {
			pt := Run(RunSpec{
				Name: v.label, Mode: core.ModeScatterPP, Placement: ConfigC1,
				Clients: n, Duration: duration, Seed: 1540 + int64(n),
				Profiles: v.profiles,
			})
			ap := AblationPoint{Param: "extractor-" + v.label, ValueN: n, Clients: n, Summary: digest(pt)}
			pts = append(pts, ap)
			t.Rows = append(t.Rows, []string{
				v.label, fmt.Sprintf("%d", n),
				f1(ap.Summary.FPSPerClient), pct(ap.Summary.SuccessRate),
			})
		}
	}
	r := Report{
		ID:    "ablation-fastmodel",
		Title: "Ablation: faster feature extractor (paper §5)",
		Notes: `A faster detection model shifts the saturation point to more
		clients but the architecture still saturates — model optimization is
		no substitute for a horizontally scalable design.`,
		Tables: []Table{t},
	}
	return pts, r
}

// Ablations runs the full ablation suite.
func Ablations(duration time.Duration) Report {
	if duration <= 0 {
		duration = DefaultDuration
	}
	_, r1 := AblationThreshold(duration)
	_, r2 := AblationQueueCap(duration)
	_, r3 := AblationFetchTimeout(duration)
	_, r4 := AblationStateTimeout(duration)
	_, r5 := AblationFastModel(duration)
	combined := Report{
		ID:    "ablations",
		Title: "Design-choice ablations (threshold, queue, fetch/state timeouts, extractor)",
	}
	for _, r := range []Report{r1, r2, r3, r4, r5} {
		t := r.Tables[0]
		t.Title = r.Title + " — " + t.Title
		combined.Tables = append(combined.Tables, t)
	}
	return combined
}
