package agent

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestWorkerAdmissionEnforcement exercises the sidecar-ingress admission
// gate: reject turns every frame away, degrade admits one in
// core.DegradeStride by frame number, and refused frames are accounted as
// DroppedAdmission — a deliberate control action, never mixed into the
// distress drop counters or silently lost.
func TestWorkerAdmissionEnforcement(t *testing.T) {
	var delivered atomic.Uint64
	sink, err := listenEndpoint("udp", "127.0.0.1:0", func([]byte, net.Addr) {
		delivered.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	reg := obs.NewRegistry()
	w, err := StartWorker(WorkerConfig{
		Step:       wire.StepSIFT,
		Mode:       core.ModeScatterPP,
		Processor:  stepProcessor{step: wire.StepSIFT, next: wire.StepDone},
		ListenAddr: "127.0.0.1:0",
		Router:     NewStaticRouter(nil),
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	src, err := listenEndpoint("udp", "127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	send := func(n int) {
		t.Helper()
		fr := sinkBoundFrame(t, sink.LocalAddr(), 4<<10)
		fr.Step = wire.StepSIFT
		for i := 0; i < n; i++ {
			fr.FrameNo = uint64(i)
			data, err := fr.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := src.SendToAddr(w.Addr(), data); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Admitted: everything flows.
	send(10)
	waitFor(t, 5*time.Second, func() bool { return delivered.Load() == 10 },
		"admitted frames not delivered")

	// Rejected: nothing flows, every frame is a counted admission drop.
	w.SetAdmitState(core.AdmitReject)
	if st := w.AdmitState(); st != core.AdmitReject {
		t.Fatalf("admit state = %v", st)
	}
	send(10)
	waitFor(t, 5*time.Second, func() bool { return w.Stats().DroppedAdmission == 10 },
		"rejected frames not counted as admission drops")
	if n := delivered.Load(); n != 10 {
		t.Fatalf("rejected frames delivered: %d", n)
	}

	// Degraded: one frame in core.DegradeStride passes, by frame number.
	w.SetAdmitState(core.AdmitDegrade)
	send(10)
	admitted := uint64(10 / core.DegradeStride)
	waitFor(t, 5*time.Second, func() bool { return delivered.Load() == 10+admitted },
		"degraded stream did not deliver the strided share")
	waitFor(t, 5*time.Second, func() bool { return w.Stats().DroppedAdmission == 20-admitted },
		"degraded refusals not counted")

	// Back to admit: enforcement clears completely.
	w.SetAdmitState(core.AdmitOK)
	send(10)
	waitFor(t, 5*time.Second, func() bool { return delivered.Load() == 20+admitted },
		"frames still refused after reset to admit")

	st := w.Stats()
	if st.Received != 40 {
		t.Errorf("received = %d, want 40 (refused frames still count as arrivals)", st.Received)
	}
	// The deliberate refusals must not contaminate the distress counters.
	if st.DroppedBusy != 0 || st.DroppedQueue != 0 || st.DroppedThreshold != 0 {
		t.Errorf("admission refusals leaked into distress drops: %+v", st)
	}
	d := reg.Digest()
	if len(d) != 1 || d[0].AdmissionDrops != st.DroppedAdmission {
		t.Errorf("registry digest = %+v, want AdmissionDrops %d", d, st.DroppedAdmission)
	}
	if d[0].Dropped != 0 {
		t.Errorf("registry distress drops = %d, want 0", d[0].Dropped)
	}
}

// TestDeployerAppliesAndResetsAdmissions covers the node-agent side of
// the heartbeat downlink, the code scatter-node runs, over a deployment's
// live workers: ApplyAdmissions pushes listed verdicts to the live
// workers of each service and resets unlisted services to admit, and
// AdmissionDigest reports the verdicts in force.
func TestDeployerAppliesAndResetsAdmissions(t *testing.T) {
	h := startFailoverDeployment(t, nil)

	ApplyAdmissions(h.dep.liveWorkers(), []orchestrator.ServiceAdmission{
		{Service: "sift", State: "degrade"},
		{Service: "lsh", State: "reject"},
		{Service: "Matching", State: "degrade"}, // case as a config file may carry it
		{Service: "ghost", State: "reject"},     // unknown services are ignored
	})
	wantState := func(key string, want core.AdmitState) {
		t.Helper()
		w, ok := h.dep.Worker(key)
		if !ok {
			t.Fatalf("no worker %s", key)
		}
		if st := w.AdmitState(); st != want {
			t.Errorf("%s admit = %v, want %v", key, st, want)
		}
	}
	wantState("scatter/sift/0", core.AdmitDegrade)
	wantState("scatter/lsh/0", core.AdmitReject)
	wantState("scatter/matching/0", core.AdmitDegrade)
	wantState("scatter/primary/0", core.AdmitOK)

	dg := AdmissionDigest(h.dep.liveWorkers())
	states := map[string]string{}
	for _, s := range dg.Services {
		states[s.Service] = s.State
	}
	if states["sift"] != "degrade" || states["lsh"] != "reject" || states["matching"] != "degrade" {
		t.Errorf("admission digest = %+v", dg)
	}

	// An empty verdict set resets everything — a controller restart can
	// never wedge a service shut.
	ApplyAdmissions(h.dep.liveWorkers(), nil)
	wantState("scatter/sift/0", core.AdmitOK)
	wantState("scatter/lsh/0", core.AdmitOK)
	wantState("scatter/matching/0", core.AdmitOK)
}
