package agent

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/appaware"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/wire"
)

// collapseProc is a two-stage pipeline stub whose sift cost is dialed at
// runtime: raising the delay drops per-replica capacity below the client
// rate, inducing the paper's queue-drop collapse without touching the
// hardware gauges the orchestrator reports.
type collapseProc struct {
	step  wire.Step
	delay *atomic.Int64 // per-frame processing cost in microseconds
}

func (p *collapseProc) Step() wire.Step { return p.step }

func (p *collapseProc) Process(fr *wire.Frame) error {
	if p.step == wire.StepSIFT {
		if d := p.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d) * time.Microsecond)
		}
		fr.Payload = (&core.Payload{}).Encode()
		fr.Step = wire.StepDone
		return nil
	}
	fr.Step = p.step.Next()
	return nil
}

// autoscaleHarness is a live closed control loop: real workers under a
// Deployer, a Root with the deployment, and an Autoscaler consuming the
// node registry's digests the way heartbeats carry them.
type autoscaleHarness struct {
	root   *orchestrator.Root
	dep    *Deployer
	reg    *obs.Registry
	as     *orchestrator.Autoscaler
	client *Client
	delay  atomic.Int64
}

func startAutoscaleDeployment(t *testing.T, policy appaware.Policy, maxReplicas int, admission bool) *autoscaleHarness {
	t.Helper()
	h := &autoscaleHarness{reg: obs.NewRegistry()}
	router := NewStaticRouter(nil)
	dep, err := NewDeployer(DeployerConfig{
		Mode:   core.ModeScatterPP,
		Router: router,
		NewProcessor: func(step wire.Step) core.Processor {
			return &collapseProc{step: step, delay: &h.delay}
		},
		Configure: func(wc *WorkerConfig) {
			wc.Obs = h.reg
			wc.QueueCap = 8 // small queue so a collapse shows up as drops fast
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	h.dep = dep
	h.root = orchestrator.NewRoot(orchestrator.WithHooks(dep.Hooks()))
	t0 := time.Now()
	for _, name := range []string{"n1", "n2"} {
		err := h.root.RegisterNode(orchestrator.NodeInfo{
			Name: name, Cluster: "edge", CPUCores: 8, MemBytes: 8 << 30,
		}, t0)
		if err != nil {
			t.Fatal(err)
		}
	}
	sla := orchestrator.SLA{AppName: "scatter", Microservices: []orchestrator.ServiceSLA{
		{Name: "primary", Image: "scatter/primary", Replicas: 1,
			Requirements: orchestrator.Requirements{MemBytes: 128 << 20, Machines: []string{"n1"}}},
		{Name: "sift", Image: "scatter/sift", Replicas: 1,
			Requirements: orchestrator.Requirements{MemBytes: 128 << 20, Machines: []string{"n1", "n2"}}},
	}}
	if _, err := h.root.Deploy(sla); err != nil {
		t.Fatal(err)
	}
	h.as = orchestrator.NewAutoscaler(h.root, appaware.LoopConfig{
		Policy: policy, MaxReplicas: maxReplicas, AdmissionEnabled: admission,
	}, orchestrator.AutoscalerConfig{App: "scatter"})
	ingress, ok := dep.Addr(wire.StepPrimary)
	if !ok {
		t.Fatal("no primary worker")
	}
	client, err := StartClient(ClientConfig{
		ID: 1, FPS: 60, Ingress: ingress,
		NextFrame: func(int) []byte { return (&core.Payload{}).Encode() },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	h.client = client
	return h
}

// controlTick plays one heartbeat round trip: nodes report app digests
// with LOW hardware gauges (the collapse is processing-cost-induced, so
// CPU/GPU stay cool — exactly the telemetry today's orchestrators see),
// the loop evaluates, and the response verdicts land on the live workers
// the way a heartbeat response would.
func (h *autoscaleHarness) controlTick(t *testing.T) {
	t.Helper()
	now := time.Now()
	err := h.root.Heartbeat("n1", orchestrator.NodeStatus{
		CPUUtil: 0.1, GPUUtil: 0.1, LastHeartbeat: now,
		Services: orchestrator.TelemetryFromDigests(h.reg.Digest()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.root.Heartbeat("n2", orchestrator.NodeStatus{
		CPUUtil: 0.05, GPUUtil: 0.05, LastHeartbeat: now,
	}); err != nil {
		t.Fatal(err)
	}
	h.as.Tick(now)
	ApplyAdmissions(h.dep.liveWorkers(), h.root.Admissions())
}

// fps drains stale results, then measures delivered frames per second
// over the window.
func (h *autoscaleHarness) fps(window time.Duration) float64 {
	for {
		select {
		case <-h.client.Results():
			continue
		default:
		}
		break
	}
	return float64(collectResults(h.client, window)) / window.Seconds()
}

// siftDistressDrops sums the sidecar's distress drops (queue overflow +
// queue-latency shedding) — the counters a collapse shows up in.
func (h *autoscaleHarness) siftDistressDrops() uint64 {
	st := h.dep.Stats()["sift"]
	return st.DroppedQueue + st.DroppedThreshold
}

func (h *autoscaleHarness) siftReplicas(t *testing.T) int {
	t.Helper()
	d, err := h.root.Deployment("scatter")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, in := range d.Instances {
		if in.Service == "sift" {
			n++
		}
	}
	return n
}

// TestAutoscalerChaosCollapse is the closed-loop e2e: a processing-cost
// collapse that stays invisible in hardware telemetry. The QoS loop must
// scale the distressed service out and recover delivered FPS; the
// hardware loop must take no action on the same collapse; and at the
// replica cap, admission control must measurably bound sidecar queue
// drops.
func TestAutoscalerChaosCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e autoscaler test")
	}

	t.Run("qos recovers delivered fps", func(t *testing.T) {
		h := startAutoscaleDeployment(t, appaware.QoSPolicy{MinSamples: 10}, 3, false)
		h.delay.Store(1_000) // 1 ms/frame: healthy
		pre := h.fps(2 * time.Second)
		if pre < 30 {
			t.Fatalf("healthy baseline only %.1f fps", pre)
		}
		// Collapse: 25 ms/frame caps one replica at ~40 fps under a 60 fps
		// client — queue drops, while reported CPU/GPU stay low.
		h.delay.Store(25_000)
		scaled := false
		for i := 0; i < 24 && !scaled; i++ {
			time.Sleep(500 * time.Millisecond)
			h.controlTick(t)
			scaled = h.siftReplicas(t) >= 2
		}
		if !scaled {
			t.Fatalf("qos loop never scaled sift; events: %+v, stats: %+v",
				h.as.Events(), h.dep.Stats())
		}
		ev := h.as.Events()
		if ev[0].Step != wire.StepSIFT || ev[0].Verb != appaware.VerbScaleUp {
			t.Errorf("first action = %+v, want sift scale-up", ev[0])
		}
		// Let the new replica drain the backlog, then measure recovery.
		time.Sleep(time.Second)
		post := h.fps(2 * time.Second)
		if post < 0.8*pre {
			t.Errorf("delivered FPS did not recover: %.1f post vs %.1f pre (%.0f%%)",
				post, pre, 100*post/pre)
		}
	})

	t.Run("hardware policy takes no action", func(t *testing.T) {
		h := startAutoscaleDeployment(t, appaware.HardwarePolicy{}, 3, false)
		h.delay.Store(25_000)
		dropsBefore := h.siftDistressDrops()
		for i := 0; i < 8; i++ {
			time.Sleep(400 * time.Millisecond)
			h.controlTick(t)
		}
		// The collapse is real…
		if d := h.siftDistressDrops(); d == dropsBefore {
			t.Fatalf("no queue drops — collapse never happened (stats: %+v)", h.dep.Stats())
		}
		// …but invisible to a utilization-only controller.
		if ev := h.as.Events(); len(ev) != 0 {
			t.Errorf("hardware policy acted on cool gauges: %+v", ev)
		}
		if n := h.siftReplicas(t); n != 1 {
			t.Errorf("sift replicas = %d, want unchanged 1", n)
		}
	})

	t.Run("admission bounds queue drops at the cap", func(t *testing.T) {
		h := startAutoscaleDeployment(t, appaware.QoSPolicy{MinSamples: 10}, 1, true)
		// Deep collapse: ~66% of ingress dropped, past the reject ratio.
		h.delay.Store(50_000)
		// Uncontrolled: measure how fast queue drops grow with the loop off.
		time.Sleep(2 * time.Second)
		uncontrolled := h.siftDistressDrops()
		if uncontrolled == 0 {
			t.Fatalf("collapse produced no queue drops; stats: %+v", h.dep.Stats())
		}
		// Close the loop until a verdict is in force at the sidecar.
		engaged := false
		for i := 0; i < 24 && !engaged; i++ {
			time.Sleep(500 * time.Millisecond)
			h.controlTick(t)
			// The root lists only verdicts other than admit.
			for _, a := range h.root.Admissions() {
				engaged = engaged || a.Service == wire.StepSIFT.String()
			}
		}
		if !engaged {
			t.Fatalf("admission never engaged; events: %+v", h.as.Events())
		}
		if n := h.siftReplicas(t); n != 1 {
			t.Fatalf("scaled past MaxReplicas=1: %d replicas", n)
		}
		// Controlled window: enforcement must cut the queue-drop rate well
		// below the uncontrolled rate over the same 2 s span.
		start := h.siftDistressDrops()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			time.Sleep(500 * time.Millisecond)
			h.controlTick(t) // keep verdicts fresh (and let them relax to degrade)
		}
		controlled := h.siftDistressDrops() - start
		if controlled*2 > uncontrolled {
			t.Errorf("admission did not bound queue drops: %d controlled vs %d uncontrolled over 2s",
				controlled, uncontrolled)
		}
		if adm := h.dep.Stats()["sift"].DroppedAdmission; adm == 0 {
			t.Error("no admission drops counted while a verdict was in force")
		}
		// The refusals surface in the node's admission digest, not as
		// distress.
		dg := AdmissionDigest(h.dep.liveWorkers())
		found := false
		for _, s := range dg.Services {
			if s.Service == "sift" && s.Drops > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("admission digest missing sift drops: %+v", dg)
		}
	})
}
