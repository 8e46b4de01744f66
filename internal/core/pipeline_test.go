package core

import (
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/metrics"
	"github.com/edge-mar/scatter/internal/sim"
	"github.com/edge-mar/scatter/internal/testbed"
	"github.com/edge-mar/scatter/internal/wire"
)

// env bundles a simulation world for pipeline tests.
type env struct {
	eng    *sim.Engine
	fabric *Fabric
	col    *metrics.Collector
	e1     *testbed.Machine
	e2     *testbed.Machine
}

func newEnv(seed int64) *env {
	eng := sim.New(seed)
	return &env{
		eng:    eng,
		fabric: NewFabric(eng),
		col:    metrics.NewCollector(),
		e1:     testbed.NewMachine(testbed.E1(), eng),
		e2:     testbed.NewMachine(testbed.E2(), eng),
	}
}

// run executes a deployment for duration with n clients at 30 FPS.
func (e *env) run(p *Pipeline, n int, duration time.Duration) metrics.Summary {
	for i := 0; i < n; i++ {
		p.AddClient(ClientConfig{
			ID:    uint32(i + 1),
			FPS:   30,
			Start: sim.Time(i) * 7 * time.Millisecond, // staggered starts
			Stop:  duration,
		})
	}
	e.eng.Run(duration + 500*time.Millisecond) // drain in-flight frames
	_, machines := p.Usage()
	return e.col.Summarize(duration, n, machines)
}

func TestPlacementValidate(t *testing.T) {
	var p Placement
	if err := p.Validate(); err == nil {
		t.Error("empty placement validated")
	}
	e := newEnv(1)
	good := PlaceAll(e.e1)
	if err := good.Validate(); err != nil {
		t.Errorf("PlaceAll invalid: %v", err)
	}
	good[2] = []*testbed.Machine{nil}
	if err := good.Validate(); err == nil {
		t.Error("nil machine validated")
	}
}

func TestPlaceOrderedPanics(t *testing.T) {
	e := newEnv(1)
	defer func() {
		if recover() == nil {
			t.Error("PlaceOrdered with wrong count did not panic")
		}
	}()
	PlaceOrdered(e.e1, e.e2)
}

func TestDefaultProfilesValid(t *testing.T) {
	if err := DefaultProfiles().Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultProfiles()
	// sift must be the heaviest service (the paper's bottleneck).
	sift := p[wire.StepSIFT].Total()
	for step := range p {
		if wire.Step(step) == wire.StepSIFT {
			continue
		}
		if p[step].Total() >= sift {
			t.Errorf("%s (%v) is not lighter than sift (%v)", wire.Step(step), p[step].Total(), sift)
		}
	}
	if !p[wire.StepSIFT].UsesGPU() || p[wire.StepPrimary].UsesGPU() {
		t.Error("GPU dependency flags wrong: all services except primary are GPU-dependent")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Threshold != 100*time.Millisecond {
		t.Errorf("threshold = %v, want the paper's 100ms", o.Threshold)
	}
	if o.FetchTimeout <= 0 || o.StateTimeout <= 0 || o.QueueCap <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

func TestSingleClientScatterBaseline(t *testing.T) {
	e := newEnv(11)
	p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), Options{Mode: ModeScatter})
	s := e.run(p, 1, 30*time.Second)
	if s.FPSPerClient < 25 {
		t.Errorf("single-client FPS = %.1f, want >= 25 (paper)", s.FPSPerClient)
	}
	if s.E2EMean < 30*time.Millisecond || s.E2EMean > 60*time.Millisecond {
		t.Errorf("E2E = %v, want ≈40ms", s.E2EMean)
	}
	if s.SuccessRate < 0.8 {
		t.Errorf("success rate = %.2f, want >= 0.8", s.SuccessRate)
	}
}

func TestScatterDegradesWithClients(t *testing.T) {
	fps := func(n int) float64 {
		e := newEnv(12)
		p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), Options{Mode: ModeScatter})
		return e.run(p, n, 30*time.Second).FPSPerClient
	}
	one := fps(1)
	four := fps(4)
	if four >= one/2 {
		t.Errorf("scAtteR per-client FPS: 1 client %.1f, 4 clients %.1f; want severe degradation", one, four)
	}
	if four > 10 {
		t.Errorf("4-client scAtteR FPS = %.1f, paper struggled to maintain >5", four)
	}
}

func TestScatterPPOutperformsUnderLoad(t *testing.T) {
	run := func(mode Mode) metrics.Summary {
		e := newEnv(13)
		p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), Options{Mode: mode})
		return e.run(p, 4, 30*time.Second)
	}
	base := run(ModeScatter)
	pp := run(ModeScatterPP)
	if pp.FPSPerClient < 2*base.FPSPerClient {
		t.Errorf("scAtteR++ %.1f FPS vs scAtteR %.1f FPS at 4 clients; want >= 2x (paper: 2.5x)",
			pp.FPSPerClient, base.FPSPerClient)
	}
	if pp.FPSPerClient < 10 {
		t.Errorf("scAtteR++ 4-client FPS = %.1f, paper maintains ≈12", pp.FPSPerClient)
	}
}

func TestScatterPPThresholdBoundsQueueing(t *testing.T) {
	e := newEnv(14)
	p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), Options{Mode: ModeScatterPP})
	s := e.run(p, 4, 20*time.Second)
	// The sidecar drops requests whose queue wait exceeds the 100ms
	// budget, so per-service queueing stays bounded by the threshold and
	// the saturated stage shows threshold drops.
	for name, svc := range s.Services {
		if svc.MeanQueue > p.Options().Threshold {
			t.Errorf("%s mean queue wait %v exceeds threshold", name, svc.MeanQueue)
		}
	}
	if s.Drops[metrics.DropThreshold] == 0 {
		t.Error("no threshold drops at 4 clients; sidecar filter inactive")
	}
	// E2E is bounded by the sum of per-stage budgets; in practice one
	// saturated stage dominates, so well under 2x threshold + compute.
	if s.E2EP95 > 250*time.Millisecond {
		t.Errorf("p95 E2E = %v, want threshold-bounded (<250ms)", s.E2EP95)
	}
}

func TestSiftStateMemoryGrowsUnderLoad(t *testing.T) {
	e := newEnv(15)
	p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), Options{Mode: ModeScatter})
	for i := 0; i < 4; i++ {
		p.AddClient(ClientConfig{ID: uint32(i + 1), FPS: 30, Stop: 10 * time.Second})
	}
	e.eng.Run(5 * time.Second) // mid-run, states outstanding
	services, _ := p.Usage()
	sift := services["sift"]
	baseline := DefaultProfiles()[wire.StepSIFT].BaselineMem
	if sift.MemBytes <= baseline {
		t.Errorf("sift memory %d not above baseline %d; state retention missing", sift.MemBytes, baseline)
	}
	// scAtteR++ has no state growth.
	e2 := newEnv(15)
	p2 := NewPipeline(e2.eng, e2.fabric, e2.col, PlaceAll(e2.e1), DefaultProfiles(), Options{Mode: ModeScatterPP})
	for i := 0; i < 4; i++ {
		p2.AddClient(ClientConfig{ID: uint32(i + 1), FPS: 30, Stop: 10 * time.Second})
	}
	e2.eng.Run(5 * time.Second)
	services2, _ := p2.Usage()
	if services2["sift"].MemBytes != baseline {
		t.Errorf("scAtteR++ sift memory %d, want baseline %d (stateless)", services2["sift"].MemBytes, baseline)
	}
}

func TestSiftStateTiedToProcessingReplica(t *testing.T) {
	// Frames are balanced round-robin across sift replicas, but each
	// frame's state stays tied to the replica that processed it: the
	// sticky pointer recorded at state-store time must name that replica.
	e := newEnv(16)
	placement := PlaceAll(e.e2)
	placement[wire.StepSIFT] = []*testbed.Machine{e.e2, e.e1}
	p := NewPipeline(e.eng, e.fabric, e.col, placement, DefaultProfiles(), Options{Mode: ModeScatter})
	a := p.route(wire.StepSIFT, 7)
	b := p.route(wire.StepSIFT, 7)
	if a == b {
		t.Fatal("sift replicas not balanced per frame")
	}
	fr := &simFrame{clientID: 7, frameNo: 1}
	a.storeState(fr)
	if fr.sticky != a {
		t.Error("frame state not tied to the processing replica")
	}
	if a.StateCount() != 1 || b.StateCount() != 0 {
		t.Errorf("state counts: a=%d b=%d", a.StateCount(), b.StateCount())
	}
}

func TestRoundRobinRouting(t *testing.T) {
	e := newEnv(17)
	placement := PlaceAll(e.e2)
	placement[wire.StepEncoding] = []*testbed.Machine{e.e2, e.e1}
	p := NewPipeline(e.eng, e.fabric, e.col, placement, DefaultProfiles(), Options{Mode: ModeScatterPP})
	a := p.route(wire.StepEncoding, 1)
	b := p.route(wire.StepEncoding, 1)
	c := p.route(wire.StepEncoding, 1)
	if a == b || a != c {
		t.Error("round-robin routing not alternating across replicas")
	}
	// In scAtteR++ sift is stateless and also round-robins.
	placement2 := PlaceAll(e.e2)
	placement2[wire.StepSIFT] = []*testbed.Machine{e.e2, e.e1}
	p2 := NewPipeline(e.eng, NewFabric(e.eng), metrics.NewCollector(), placement2, DefaultProfiles(), Options{Mode: ModeScatterPP})
	s1 := p2.route(wire.StepSIFT, 1)
	s2 := p2.route(wire.StepSIFT, 1)
	if s1 == s2 {
		t.Error("scAtteR++ sift routing is sticky; should be round-robin")
	}
}

func TestFetchLoadDoublesOnSift(t *testing.T) {
	e := newEnv(18)
	p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), Options{Mode: ModeScatter})
	s := e.run(p, 1, 10*time.Second)
	sift := s.Services["sift"]
	primary := s.Services["primary"]
	// sift sees its extraction requests plus matching's fetches: arrivals
	// must clearly exceed primary's (up to drops along the way).
	if float64(sift.Arrived) < 1.5*float64(primary.Processed) {
		t.Errorf("sift arrivals %d vs primary processed %d; fetch load missing",
			sift.Arrived, primary.Processed)
	}
}

func TestUsageReporting(t *testing.T) {
	e := newEnv(19)
	p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), Options{Mode: ModeScatter})
	s := e.run(p, 1, 5*time.Second)
	services, machines := p.Usage()
	if len(services) != wire.NumSteps {
		t.Fatalf("services = %d", len(services))
	}
	for name, u := range services {
		if u.MemBytes <= 0 {
			t.Errorf("%s memory = %d", name, u.MemBytes)
		}
		if u.CPUPct < 0 || u.CPUPct > 1 || u.GPUPct < 0 || u.GPUPct > 1 {
			t.Errorf("%s utilization out of range: %+v", name, u)
		}
	}
	if services["sift"].GPUPct <= 0 {
		t.Error("sift GPU utilization is zero")
	}
	if services["primary"].GPUPct != 0 {
		t.Error("primary (CPU-only) has GPU utilization")
	}
	if len(machines) != 1 || machines[0].Machine != "E1" {
		t.Errorf("machines = %+v", machines)
	}
	if machines[0].MemBytes <= 0 {
		t.Error("machine memory usage not accounted")
	}
	_ = s
}

func TestDistributedPlacementWorks(t *testing.T) {
	// C12: primary+sift on E1, rest on E2 (the paper's split deployment).
	e := newEnv(20)
	placement := Placement{
		wire.StepPrimary:  {e.e1},
		wire.StepSIFT:     {e.e1},
		wire.StepEncoding: {e.e2},
		wire.StepLSH:      {e.e2},
		wire.StepMatching: {e.e2},
	}
	p := NewPipeline(e.eng, e.fabric, e.col, placement, DefaultProfiles(), Options{Mode: ModeScatter})
	s := e.run(p, 1, 20*time.Second)
	if s.FPSPerClient < 20 {
		t.Errorf("C12 single-client FPS = %.1f", s.FPSPerClient)
	}
	// Cross-machine fetch adds LAN RTT but must still mostly succeed.
	if s.SuccessRate < 0.7 {
		t.Errorf("C12 success = %.2f", s.SuccessRate)
	}
}

func TestAddClientValidation(t *testing.T) {
	e := newEnv(21)
	p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), Options{})
	defer func() {
		if recover() == nil {
			t.Error("AddClient with Stop <= Start did not panic")
		}
	}()
	p.AddClient(ClientConfig{ID: 1, Start: time.Second, Stop: time.Second})
}

func TestDeterministicRuns(t *testing.T) {
	run := func() metrics.Summary {
		e := newEnv(22)
		p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), Options{Mode: ModeScatter})
		return e.run(p, 3, 10*time.Second)
	}
	a, b := run(), run()
	if a.FramesOK != b.FramesOK || a.E2EMean != b.E2EMean || a.FramesSent != b.FramesSent {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestModeString(t *testing.T) {
	if ModeScatter.String() != "scAtteR" || ModeScatterPP.String() != "scAtteR++" {
		t.Error("mode names wrong")
	}
}

// QueueLen returns the sidecar queue length (scAtteR++).
func (in *Instance) QueueLen() int { return len(in.queue) }

// StateCount returns the number of held frame states (sift, scAtteR).
func (in *Instance) StateCount() int { return len(in.states) }

// Options returns the effective options after defaulting.
func (p *Pipeline) Options() Options { return p.opts }
