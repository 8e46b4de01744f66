package metrics

import (
	"math"
	"testing"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		c.FrameSent()
	}
	// 8 delivered with 40ms E2E each, spaced 100ms apart.
	for i := 0; i < 8; i++ {
		sent := time.Duration(i) * 100 * time.Millisecond
		c.FrameDelivered(1, sent, sent+40*time.Millisecond)
	}
	c.FrameDropped(DropBusy)
	c.FrameDropped(DropLoss)
	s := c.Summarize(2*time.Second, 1, nil)
	if s.FramesSent != 10 || s.FramesOK != 8 {
		t.Errorf("sent=%d ok=%d", s.FramesSent, s.FramesOK)
	}
	if math.Abs(s.SuccessRate-0.8) > 1e-9 {
		t.Errorf("success = %v", s.SuccessRate)
	}
	if math.Abs(s.FPSPerClient-4) > 1e-9 {
		t.Errorf("fps/client = %v, want 4", s.FPSPerClient)
	}
	if s.E2EMean != 40*time.Millisecond || s.E2EP50 != 40*time.Millisecond {
		t.Errorf("e2e mean=%v p50=%v", s.E2EMean, s.E2EP50)
	}
	if s.Drops[DropBusy] != 1 || s.Drops[DropLoss] != 1 {
		t.Errorf("drops = %v", s.Drops)
	}
	// Every frame had identical 40ms E2E, so transit-time jitter is zero.
	if s.JitterMean != 0 {
		t.Errorf("jitter mean = %v, want 0 for constant E2E", s.JitterMean)
	}
}

func TestJitterMeasuresE2EVariation(t *testing.T) {
	// Stable transit time -> zero jitter; varying transit -> mean |ΔE2E|.
	stable := NewCollector()
	for i := 0; i < 5; i++ {
		sent := time.Duration(i) * 33 * time.Millisecond
		stable.FrameDelivered(1, sent, sent+40*time.Millisecond)
	}
	if s := stable.Summarize(time.Second, 1, nil); s.JitterMean != 0 {
		t.Errorf("stable-pipeline jitter = %v, want 0", s.JitterMean)
	}
	vary := NewCollector()
	e2es := []time.Duration{40, 44, 40, 48} // deltas 4, 4, 8 -> mean 5.333ms
	for i, e := range e2es {
		sent := time.Duration(i) * 33 * time.Millisecond
		vary.FrameDelivered(1, sent, sent+e*time.Millisecond)
	}
	s := vary.Summarize(time.Second, 1, nil)
	want := (4 + 4 + 8) * time.Millisecond / 3
	if s.JitterMean != want {
		t.Errorf("jitter = %v, want %v", s.JitterMean, want)
	}
}

func TestJitterPerClient(t *testing.T) {
	c := NewCollector()
	// Two interleaved clients, each with constant (but different) E2E:
	// per-client tracking must yield zero jitter.
	c.FrameDelivered(1, 0, 40*time.Millisecond)
	c.FrameDelivered(2, 0, 90*time.Millisecond)
	c.FrameDelivered(1, 33*time.Millisecond, 73*time.Millisecond)
	c.FrameDelivered(2, 33*time.Millisecond, 123*time.Millisecond)
	s := c.Summarize(time.Second, 2, nil)
	if s.JitterMean != 0 {
		t.Errorf("jitter = %v, want 0 (per-client constant E2E)", s.JitterMean)
	}
}

func TestServiceStats(t *testing.T) {
	c := NewCollector()
	c.ServiceArrived("sift", 10*time.Millisecond)
	c.ServiceArrived("sift", 20*time.Millisecond)
	c.ServiceArrived("sift", 30*time.Millisecond)
	c.ServiceProcessed("sift", 2*time.Millisecond, 14*time.Millisecond)
	c.ServiceProcessed("sift", 4*time.Millisecond, 16*time.Millisecond)
	c.ServiceDropped("sift")
	s := c.Summarize(time.Second, 1, nil)
	svc := s.Services["sift"]
	if svc.Processed != 2 || svc.Dropped != 1 || svc.Arrived != 3 {
		t.Errorf("svc = %+v", svc)
	}
	if math.Abs(svc.DropRatio-1.0/3) > 1e-9 {
		t.Errorf("drop ratio = %v", svc.DropRatio)
	}
	if svc.MeanQueue != 3*time.Millisecond || svc.MeanProc != 15*time.Millisecond {
		t.Errorf("queue=%v proc=%v", svc.MeanQueue, svc.MeanProc)
	}
	if math.Abs(svc.IngressFPS-3) > 1e-9 {
		t.Errorf("ingress fps = %v", svc.IngressFPS)
	}
	if s.ServiceLatMean != 15*time.Millisecond {
		t.Errorf("service lat mean = %v", s.ServiceLatMean)
	}
}

func TestIngressFPSSeries(t *testing.T) {
	c := NewCollector()
	// 3 arrivals in [0, 1s), 1 in [1s, 2s).
	for _, at := range []time.Duration{100, 200, 900, 1500} {
		c.ServiceArrived("primary", at*time.Millisecond)
	}
	series := c.IngressFPSSeries("primary", 2*time.Second, time.Second)
	if len(series) != 2 {
		t.Fatalf("series length = %d", len(series))
	}
	if series[0] != 3 || series[1] != 1 {
		t.Errorf("series = %v, want [3 1]", series)
	}
	// Unknown service: zeros.
	z := c.IngressFPSSeries("nope", 2*time.Second, time.Second)
	if len(z) != 2 || z[0] != 0 || z[1] != 0 {
		t.Errorf("unknown service series = %v", z)
	}
	if got := c.IngressFPSSeries("primary", 0, time.Second); got != nil {
		t.Errorf("zero duration series = %v", got)
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.FrameDelivered(uint32(i), 0, time.Duration(i)*time.Millisecond)
	}
	s := c.Summarize(time.Second, 100, nil)
	if s.E2EP50 < 49*time.Millisecond || s.E2EP50 > 52*time.Millisecond {
		t.Errorf("p50 = %v", s.E2EP50)
	}
	if s.E2EP95 < 94*time.Millisecond || s.E2EP95 > 97*time.Millisecond {
		t.Errorf("p95 = %v", s.E2EP95)
	}
}

func TestEmptyCollector(t *testing.T) {
	s := NewCollector().Summarize(time.Second, 0, nil)
	if s.SuccessRate != 0 || s.FPSPerClient != 0 || s.E2EMean != 0 || s.JitterMean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestMachineUsagePassthrough(t *testing.T) {
	usage := []MachineUsage{{Machine: "E1", CPUUtil: 0.05, GPUUtil: 0.2, MemBytes: 1 << 30}}
	s := NewCollector().Summarize(time.Second, 1, usage)
	if len(s.Machines) != 1 || s.Machines[0].Machine != "E1" {
		t.Errorf("machines = %+v", s.Machines)
	}
}

func TestServiceCounters(t *testing.T) {
	c := NewCollector()
	c.ServiceArrived("sift", 0)
	c.ServiceArrived("sift", time.Millisecond)
	c.ServiceProcessed("sift", 0, time.Millisecond)
	c.ServiceDroppedAt("sift", 2*time.Millisecond)
	arrived, processed, dropped := c.ServiceCounters("sift")
	if arrived != 2 || processed != 1 || dropped != 1 {
		t.Errorf("counters = %d %d %d", arrived, processed, dropped)
	}
	if a, p, d := c.ServiceCounters("ghost"); a != 0 || p != 0 || d != 0 {
		t.Error("unknown service counters nonzero")
	}
}

func TestDropRatioSeries(t *testing.T) {
	c := NewCollector()
	// Interval 1: 4 arrivals, 1 drop. Interval 2: 2 arrivals, 2 drops.
	for _, at := range []time.Duration{100, 200, 300, 400} {
		c.ServiceArrived("sift", at*time.Millisecond)
	}
	c.ServiceDroppedAt("sift", 500*time.Millisecond)
	c.ServiceArrived("sift", 1100*time.Millisecond)
	c.ServiceArrived("sift", 1200*time.Millisecond)
	c.ServiceDroppedAt("sift", 1300*time.Millisecond)
	c.ServiceDroppedAt("sift", 1400*time.Millisecond)
	got := c.DropRatioSeries("sift", 2*time.Second, time.Second)
	if len(got) != 2 {
		t.Fatalf("series = %v", got)
	}
	if math.Abs(got[0]-0.25) > 1e-9 || math.Abs(got[1]-1.0) > 1e-9 {
		t.Errorf("ratios = %v, want [0.25 1.0]", got)
	}
	if z := c.DropRatioSeries("ghost", time.Second, time.Second); len(z) != 1 || z[0] != 0 {
		t.Errorf("unknown service = %v", z)
	}
	if got := c.DropRatioSeries("sift", 0, time.Second); got != nil {
		t.Errorf("zero duration = %v", got)
	}
	// Intervals with no arrivals report zero, not NaN.
	empty := c.DropRatioSeries("sift", 4*time.Second, time.Second)
	if empty[3] != 0 {
		t.Errorf("empty interval ratio = %v", empty[3])
	}
}

// ServiceDropped records a request dropped at a service ingress.
func (c *Collector) ServiceDropped(name string) { c.service(name).Dropped++ }
