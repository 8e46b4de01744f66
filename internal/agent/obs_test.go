package agent

import (
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/wire"
)

// TestWorkerObservability runs the two-node scAtteR++ split with span
// tracing on, and verifies (a) result frames carry one span per stage
// with host attribution and consistent segments, and (b) each node's live
// registry digest agrees with its workers' own counters while the run is
// still in flight.
func TestWorkerObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline integration test")
	}
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, FPS: 10, Seconds: 2, Seed: 7})
	e1, e2 := startSplit(t, testModel(t))
	hosts := []string{"E1", "E1", "E2", "E2", "E2"}

	fps, wantResults, patience := 10, 4, 20*time.Second
	if raceEnabled {
		fps, wantResults, patience = 4, 2, 45*time.Second
	}
	client, err := StartClient(ClientConfig{
		ID: 1, FPS: fps, Ingress: e1.Worker(wire.StepPrimary).Addr(), Obs: e1.reg,
		NextFrame: func(i int) []byte {
			p := &core.Payload{Image: core.GrayToPayload(gen.GrayFrame(i % gen.NumFrames()))}
			return p.Encode()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var results []ClientResult
	deadline := time.After(patience)
	for len(results) < wantResults {
		select {
		case res := <-client.Results():
			results = append(results, res)
		case <-deadline:
			t.Fatalf("only %d results before deadline", len(results))
		}
	}

	// (a) spans ride the frame: every result carries all five stages in
	// pipeline order with host attribution and ordered timestamps.
	for _, res := range results {
		if len(res.Spans) != wire.NumSteps {
			t.Fatalf("frame %d carries %d spans, want %d", res.FrameNo, len(res.Spans), wire.NumSteps)
		}
		for i, rec := range res.Spans {
			if rec.Step != wire.Step(i) {
				t.Errorf("span %d is %s, want %s", i, rec.Step, wire.Step(i))
			}
			if rec.Host != hosts[i] {
				t.Errorf("span %s host = %q, want %q", rec.Step, rec.Host, hosts[i])
			}
			if rec.StartMicros < rec.EnqueueMicros || rec.EndMicros <= rec.StartMicros {
				t.Errorf("span %s timestamps not ordered: %+v", rec.Step, rec)
			}
		}
		spans := obs.FromWire(1, res.FrameNo, res.Spans)
		for _, s := range spans {
			if s.Proc <= 0 {
				t.Errorf("span %s has no processing segment", s.Service)
			}
		}
	}

	// (b) each node's live digest matches its worker counters mid-run.
	for _, n := range []*Node{e1, e2} {
		digest := n.reg.Digest()
		if len(digest) != len(n.workers) {
			t.Fatalf("digest has %d services, node runs %d", len(digest), len(n.workers))
		}
		byName := map[string]obs.ServiceDigest{}
		for _, d := range digest {
			byName[d.Service] = d
		}
		for _, w := range n.workers {
			st := w.Stats()
			d, ok := byName[w.cfg.Step.String()]
			if !ok {
				t.Fatalf("no digest for %s", w.cfg.Step)
			}
			if d.Processed != st.Processed {
				t.Errorf("%s digest processed = %d, worker counter = %d",
					d.Service, d.Processed, st.Processed)
			}
			if d.Processed > 0 && d.P95Micros == 0 {
				t.Errorf("%s has processed frames but zero p95", d.Service)
			}
		}
	}
	if e1.reg.FramesSent.Value() == 0 || e1.reg.FramesDelivered.Value() == 0 {
		t.Error("client counters not fed")
	}
}
