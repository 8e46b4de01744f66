package agent

import (
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/wire"
)

// testDeployment starts a node-single-shaped node on loopback UDP and
// returns the ingress address and the workers in pipeline order.
func testDeployment(t *testing.T, mode core.Mode) (ingress string, workers []*Worker, gen *trace.Generator) {
	return testDeploymentNet(t, mode, "udp")
}

func testDeploymentNet(t *testing.T, mode core.Mode, network string) (ingress string, workers []*Worker, gen *trace.Generator) {
	t.Helper()
	gen = trace.NewGenerator(trace.Config{W: 320, H: 180, FPS: 10, Seconds: 2, Seed: 7})
	n := startTestNode(t, singleNodeConfig(mode, network), testModel(t))
	return n.Worker(wire.StepPrimary).Addr(), n.workers, gen
}

func TestStaticRouter(t *testing.T) {
	r := NewStaticRouter(map[wire.Step][]string{
		wire.StepSIFT: {"a", "b"},
	})
	if addr, ok := r.Next(wire.StepSIFT); !ok || addr != "a" {
		t.Errorf("first = %s %v", addr, ok)
	}
	if addr, _ := r.Next(wire.StepSIFT); addr != "b" {
		t.Errorf("second = %s", addr)
	}
	if addr, _ := r.Next(wire.StepSIFT); addr != "a" {
		t.Errorf("third = %s", addr)
	}
	if _, ok := r.Next(wire.StepMatching); ok {
		t.Error("unknown step routed")
	}
}

func TestStartWorkerValidation(t *testing.T) {
	if _, err := StartWorker(WorkerConfig{}); err == nil {
		t.Error("nil processor accepted")
	}
	if _, err := StartWorker(WorkerConfig{
		Step: wire.StepSIFT, Processor: core.NewPrimary(0, 0),
		Router: NewStaticRouter(nil), ListenAddr: "127.0.0.1:0",
	}); err == nil {
		t.Error("step/processor mismatch accepted")
	}
	if _, err := StartWorker(WorkerConfig{
		Step: wire.StepPrimary, Processor: core.NewPrimary(0, 0),
		ListenAddr: "127.0.0.1:0",
	}); err == nil {
		t.Error("nil router accepted")
	}
	if _, err := StartWorker(WorkerConfig{
		Step: wire.StepPrimary, Processor: core.NewPrimary(0, 0),
		Router: NewStaticRouter(nil), ListenAddr: "127.0.0.1:0",
		StateRPCListen: "127.0.0.1:0",
	}); err == nil {
		t.Error("state RPC on non-sift worker accepted")
	}
}

func runRealPipeline(t *testing.T, mode core.Mode) (results int, detections int) {
	return runRealPipelineNet(t, mode, "udp")
}

func runRealPipelineNet(t *testing.T, mode core.Mode, network string) (results int, detections int) {
	ingress, workers, gen := testDeploymentNet(t, mode, network)
	fps, wantResults, patience := 10, 5, 20*time.Second
	if raceEnabled {
		// SIFT is several times slower under the race detector.
		fps, wantResults, patience = 4, 3, 45*time.Second
	}
	client, err := StartClient(ClientConfig{
		ID:      1,
		FPS:     fps,
		Ingress: ingress,
		Network: network,
		NextFrame: func(i int) []byte {
			if i >= gen.NumFrames() {
				return nil
			}
			p := &core.Payload{Image: core.GrayToPayload(gen.GrayFrame(i))}
			return p.Encode()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	deadline := time.After(patience)
	for results < wantResults {
		select {
		case res := <-client.Results():
			results++
			detections += len(res.Detections)
			if res.E2E <= 0 {
				t.Errorf("non-positive E2E %v", res.E2E)
			}
		case <-deadline:
			t.Fatalf("only %d results before deadline; worker stats: %+v %+v %+v %+v %+v",
				results, workers[0].Stats(), workers[1].Stats(), workers[2].Stats(),
				workers[3].Stats(), workers[4].Stats())
		}
	}
	return results, detections
}

func TestRealPipelineStatefulEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline integration test")
	}
	results, detections := runRealPipeline(t, core.ModeScatter)
	if results < 3 {
		t.Fatalf("results = %d", results)
	}
	if detections == 0 {
		t.Error("no detections over the clip")
	}
}

func TestRealPipelineStatelessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline integration test")
	}
	results, detections := runRealPipeline(t, core.ModeScatterPP)
	if results < 3 {
		t.Fatalf("results = %d", results)
	}
	if detections == 0 {
		t.Error("no detections over the clip")
	}
}

func TestWorkerStatsAccumulate(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline integration test")
	}
	ingress, workers, gen := testDeployment(t, core.ModeScatterPP)
	fps := 10
	if raceEnabled {
		fps = 4
	}
	client, err := StartClient(ClientConfig{
		ID: 2, FPS: fps, Ingress: ingress,
		NextFrame: func(i int) []byte {
			p := &core.Payload{Image: core.GrayToPayload(gen.GrayFrame(i % gen.NumFrames()))}
			return p.Encode()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	select {
	case <-client.Results():
	case <-time.After(45 * time.Second):
		t.Fatal("no result")
	}
	st := workers[0].Stats() // primary
	if st.Received == 0 || st.Processed == 0 {
		t.Errorf("primary stats empty: %+v", st)
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := StartClient(ClientConfig{ID: 1, Ingress: "127.0.0.1:1"}); err == nil {
		t.Error("nil frame source accepted")
	}
}

func TestRealPipelineOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline integration test")
	}
	// The A.1.2 alternative: the whole deployment on the framed TCP
	// transport instead of UDP.
	results, detections := runRealPipelineNet(t, core.ModeScatterPP, "tcp")
	if results < 3 {
		t.Fatalf("results = %d", results)
	}
	if detections == 0 {
		t.Error("no detections over TCP")
	}
}

func TestUnknownNetworkRejected(t *testing.T) {
	_, err := StartWorker(WorkerConfig{
		Step: wire.StepPrimary, Processor: core.NewPrimary(0, 0),
		Router: NewStaticRouter(nil), ListenAddr: "127.0.0.1:0",
		Network: "carrier-pigeon",
	})
	if err == nil {
		t.Error("unknown network accepted")
	}
}
