package agent

import (
	"context"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/wire"
)

// testDeployment wires a full five-service real pipeline on loopback UDP
// and returns the ingress address.
func testDeployment(t *testing.T, mode core.Mode) (ingress string, workers []*Worker, gen *trace.Generator) {
	return testDeploymentNet(t, mode, "udp")
}

func testDeploymentNet(t *testing.T, mode core.Mode, network string) (ingress string, workers []*Worker, gen *trace.Generator) {
	t.Helper()
	gen = trace.NewGenerator(trace.Config{W: 320, H: 180, FPS: 10, Seconds: 2, Seed: 7})
	model, err := core.Train(gen.ReferenceImages(), core.TrainConfig{GMMK: 4, GMMIters: 6})
	if err != nil {
		t.Fatal(err)
	}
	stateless := mode == core.ModeScatterPP

	// Stateful matching needs sift's RPC address, and all workers need the
	// routing table, so start sift first with an explicit RPC port.
	sift := core.NewSIFT(120, stateless)
	var fetch core.StateFetcher
	siftCfg := WorkerConfig{
		Step: wire.StepSIFT, Mode: mode, Processor: sift,
		ListenAddr: "127.0.0.1:0", Router: nil, Network: network,
	}
	if !stateless {
		siftCfg.StateRPCListen = "127.0.0.1:0"
	}
	// Build everything with a late-bound router.
	table := map[wire.Step][]string{}
	router := NewStaticRouter(nil)
	lateRouter := routerFunc(func(step wire.Step) (string, bool) { return router.Next(step) })

	siftCfg.Router = lateRouter
	procs := [wire.NumSteps]core.Processor{
		wire.StepPrimary:  core.NewPrimary(320, 180),
		wire.StepSIFT:     sift,
		wire.StepEncoding: core.NewEncoding(model.PCA, model.Encoder),
		wire.StepLSH:      core.NewLSHService(model.Index, 3),
	}
	for step := 0; step < wire.NumSteps; step++ {
		if wire.Step(step) == wire.StepMatching {
			continue
		}
		var w *Worker
		var err error
		if wire.Step(step) == wire.StepSIFT {
			w, err = StartWorker(siftCfg)
		} else {
			w, err = StartWorker(WorkerConfig{
				Step: wire.Step(step), Mode: mode, Processor: procs[step],
				ListenAddr: "127.0.0.1:0", Router: lateRouter, Network: network,
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		table[wire.Step(step)] = []string{w.Addr()}
	}
	if !stateless {
		// The sift worker binds its RPC listener at StartWorker time with
		// an ephemeral port; reconstruct the fetcher from its address.
		rpcAddr := workers[1].RPCAddr()
		if rpcAddr == "" || rpcAddr == "127.0.0.1:0" {
			t.Fatal("sift RPC address not resolvable; see Worker.RPCAddr")
		}
		fetch = RPCStateFetcherContext(context.Background(), rpcAddr, time.Second)
	}
	matching := core.NewMatching(model.Objects, fetch)
	mw, err := StartWorker(WorkerConfig{
		Step: wire.StepMatching, Mode: mode, Processor: matching,
		ListenAddr: "127.0.0.1:0", Router: lateRouter, Network: network,
	})
	if err != nil {
		t.Fatal(err)
	}
	workers = append(workers, mw)
	table[wire.StepMatching] = []string{mw.Addr()}
	router.SetRoutes(table)

	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
	})
	return table[wire.StepPrimary][0], workers, gen
}

// routerFunc adapts a closure to Router.
type routerFunc func(step wire.Step) (string, bool)

func (f routerFunc) Next(step wire.Step) (string, bool) { return f(step) }

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
