package agent

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

var allSteps = []wire.Step{wire.StepPrimary, wire.StepSIFT, wire.StepEncoding, wire.StepLSH, wire.StepMatching}

var (
	nodeModelOnce sync.Once
	nodeModel     *core.Model
	nodeModelErr  error
)

// testModel trains one small model for the node tests that need any
// model at all.
func testModel(t *testing.T) *core.Model {
	t.Helper()
	nodeModelOnce.Do(func() {
		gen := trace.NewGenerator(trace.Config{W: 320, H: 180, FPS: 10, Seconds: 2, Seed: 7})
		nodeModel, nodeModelErr = core.Train(gen.ReferenceImages(), core.TrainConfig{GMMK: 4, GMMIters: 6})
	})
	if nodeModelErr != nil {
		t.Fatal(nodeModelErr)
	}
	return nodeModel
}

// loopbackServices lists steps as services on ephemeral loopback ports.
func loopbackServices(steps ...wire.Step) []ServiceSpec {
	svcs := make([]ServiceSpec, len(steps))
	for i, step := range steps {
		svcs[i] = ServiceSpec{Step: step.String(), Listen: "127.0.0.1:0"}
	}
	return svcs
}

// singleNodeConfig is deploy/node-single.json on ephemeral ports, in
// either mode. It names no routes, state_rpc or sift_rpc: StartNode
// routes every step to the bound workers and, in stateful mode, points
// matching at the state RPC address its own sift bound.
func singleNodeConfig(mode core.Mode, network string) NodeConfig {
	return NodeConfig{
		Mode:     strings.ToLower(mode.String()),
		Network:  network,
		Services: loopbackServices(allSteps...),
	}
}

func startTestNode(t *testing.T, cfg NodeConfig, m *core.Model) *Node {
	t.Helper()
	n, err := StartNode(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// startSplit starts the paper's C12 placement in the deploy/node-e2.json
// and node-e1.json shape, scAtteR++ with spans on: E2 hosts encoding, lsh
// and matching and starts first; E1 hosts primary and sift and routes the
// tail to E2's bound addresses.
func startSplit(t *testing.T, m *core.Model) (e1, e2 *Node) {
	t.Helper()
	e2 = startTestNode(t, NodeConfig{
		Mode: "scatter++", TraceSpans: true, Node: &orchestrator.NodeInfo{Name: "E2"},
		Services: loopbackServices(wire.StepEncoding, wire.StepLSH, wire.StepMatching),
	}, m)
	routes := make(map[string][]string)
	for _, w := range e2.workers {
		routes[w.cfg.Step.String()] = []string{w.Addr()}
	}
	e1 = startTestNode(t, NodeConfig{
		Mode: "scatter++", TraceSpans: true, Node: &orchestrator.NodeInfo{Name: "E1"},
		Services: loopbackServices(wire.StepPrimary, wire.StepSIFT),
		Routes:   routes,
	}, m)
	return e1, e2
}

func deployFiles(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("../../deploy/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no deploy/*.json files found")
	}
	return paths
}

// TestParseConfigAcceptsDeployFiles parses every shipped deployment.
func TestParseConfigAcceptsDeployFiles(t *testing.T) {
	for _, path := range deployFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ParseNodeConfig(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if len(cfg.Services) == 0 {
			t.Errorf("%s: parsed to a config with no services", path)
		}
	}
}

// TestParseConfigRejectsUnknownKeys covers the removed batching,
// recognition-cache, sharding and lsh pre-ranking keys, the removed
// route_stats tuning keys, a typo inside a nested block, and trailing
// data: each must fail at parse with the offending key named.
func TestParseConfigRejectsUnknownKeys(t *testing.T) {
	cases := []struct{ doc, want string }{
		{`{"mode": "scatter++", "batch_max": 4}`, "batch_max"},
		{`{"mode": "scatter++", "recognition_cache": {"enabled": true}}`, "recognition_cache"},
		{`{"mode": "scatter++", "sharding": {"enabled": true, "shards": 4}}`, "sharding"},
		{`{"mode": "scatter++", "lsh": {"pre_rank": 4}}`, "lsh"},
		{`{"route_stats": {"enabeld": true}}`, "enabeld"},
		{`{"mode": "scatter"} {"mode": "scatter++"}`, "trailing"},
	}
	for _, key := range []string{"alpha", "ack_timeout_ms", "min_samples", "degrade_loss", "eject_loss",
		"eject_failures", "probation_ms", "probation_successes", "probe_every", "seed"} {
		cases = append(cases, struct{ doc, want string }{
			fmt.Sprintf(`{"route_stats": {"enabled": true, %q: 1}}`, key), key})
	}
	for _, tc := range cases {
		_, err := ParseNodeConfig([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.doc)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.doc, err, tc.want)
		}
	}
}

// TestNodeDeployFilesStartAndClose starts every shipped deployment on
// loopback, as shipped and with every optional block armed, closes it,
// and checks that no goroutine outlives the node. Routes to
// *.example.lan stay as written: nothing is sent, so nothing resolves
// them.
func TestNodeDeployFilesStartAndClose(t *testing.T) {
	m := testModel(t)
	base := runtime.NumGoroutine()
	for _, path := range deployFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ParseNodeConfig(data)
		if err != nil {
			t.Fatal(err)
		}
		hosts := map[string]bool{}
		for i := range cfg.Services {
			svc := &cfg.Services[i]
			hosts[svc.Step] = true
			svc.Listen = "127.0.0.1:0"
			if svc.StateRPC != "" {
				svc.StateRPC = "127.0.0.1:0"
			}
		}
		armed := cfg
		armed.ObsListen = "127.0.0.1:0"
		armed.TraceSpans = true
		armed.RouteStats = &RouteStatsSpec{Enabled: true}
		armed.Fault = &FaultSpec{PacketLoss: 0.01, DelayMs: 1, Seed: 3}
		armed.FastPath = &FastPathSpec{Enabled: hosts["primary"] && hosts["matching"], MinHits: 2}
		for _, c := range []NodeConfig{cfg, armed} {
			n, err := StartNode(c, m)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			if len(n.workers) != len(c.Services) {
				t.Errorf("%s: %d workers for %d services", path, len(n.workers), len(c.Services))
			}
			if c.ObsListen != "" && n.ObsAddr() == "" {
				t.Errorf("%s: obs_listen set but no telemetry address", path)
			}
			if err := n.Close(); err != nil {
				t.Errorf("%s: close: %v", path, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after closing every node, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNodeFastPathNeedsPrimaryAndMatching: the gate is shared in process
// by primary and matching, so a node hosting one without the other
// cannot answer a frame from it and must refuse to start.
func TestNodeFastPathNeedsPrimaryAndMatching(t *testing.T) {
	m := testModel(t)
	fast := &FastPathSpec{Enabled: true}
	for _, tc := range []struct {
		steps   []wire.Step
		missing string
	}{
		{[]wire.Step{wire.StepPrimary, wire.StepSIFT}, "no matching"},                   // node-e1
		{[]wire.Step{wire.StepEncoding, wire.StepLSH, wire.StepMatching}, "no primary"}, // node-e2
	} {
		_, err := StartNode(NodeConfig{Mode: "scatter++", Services: loopbackServices(tc.steps...), FastPath: fast}, m)
		if err == nil || !strings.Contains(err.Error(), tc.missing) {
			t.Errorf("%v with fast_path: error %v, want one naming %q", tc.steps, err, tc.missing)
		}
	}
	n := startTestNode(t, NodeConfig{Mode: "scatter++", Services: loopbackServices(allSteps...), FastPath: fast}, m)
	if _, ok := n.reg.FastPathDigest(); !ok {
		t.Error("co-located fast path not exported")
	}
}

// TestNodeFaultBlockWrapsEveryWorker: an invalid policy stops the node at
// start, and a valid one sits on every worker's outbound traffic — with
// every message dropped, primary takes the client's frames and sift sees
// none of them.
func TestNodeFaultBlockWrapsEveryWorker(t *testing.T) {
	m := testModel(t)
	_, err := StartNode(NodeConfig{Services: loopbackServices(wire.StepPrimary), Fault: &FaultSpec{Drop: 2}}, m)
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Errorf("drop 2 accepted or not named: %v", err)
	}
	n := startTestNode(t, NodeConfig{Mode: "scatter++", Services: loopbackServices(allSteps...),
		Fault: &FaultSpec{Drop: 1}}, m)
	for _, w := range n.workers {
		if _, ok := w.conn.Load().ep.(*transport.FaultyEndpoint); !ok {
			t.Errorf("%s endpoint is not fault-wrapped", w.cfg.Step)
		}
	}
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, FPS: 10, Seconds: 1, Seed: 7})
	client, err := StartClient(ClientConfig{
		ID: 1, FPS: 20, Ingress: n.Worker(wire.StepPrimary).Addr(),
		NextFrame: func(i int) []byte {
			return (&core.Payload{Image: core.GrayToPayload(gen.GrayFrame(i % gen.NumFrames()))}).Encode()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	deadline := time.Now().Add(20 * time.Second)
	for n.Worker(wire.StepPrimary).Stats().Processed < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("primary processed nothing: %+v", n.Worker(wire.StepPrimary).Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := n.Worker(wire.StepSIFT).Stats(); st.Received != 0 {
		t.Errorf("sift received %d frames through a drop-everything fault", st.Received)
	}
}

// TestNodeSplitMatchesSingleNode: the two-node scAtteR++ split returns
// the same detections as one node for the same frames, each frame sent
// only after the previous one's result, so both matching trackers see
// the same history.
func TestNodeSplitMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline integration test")
	}
	m := testModel(t)
	frames := 6
	if raceEnabled {
		frames = 3
	}
	single := startTestNode(t, singleNodeConfig(core.ModeScatterPP, "udp"), m)
	e1, _ := startSplit(t, m)
	want := lockstepDetections(t, single.Worker(wire.StepPrimary).Addr(), frames)
	got := lockstepDetections(t, e1.Worker(wire.StepPrimary).Addr(), frames)
	found := 0
	for i := range want {
		found += len(want[i])
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("frame %d: split detected %+v, one node %+v", i+1, got[i], want[i])
		}
	}
	if found == 0 {
		t.Error("no detections on any frame: the comparison shows nothing")
	}
}

// lockstepDetections streams the first n frames of the test clip into
// ingress, each after the previous result arrived, and returns every
// frame's detections.
func lockstepDetections(t *testing.T, ingress string, n int) [][]core.Detection {
	t.Helper()
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, FPS: 10, Seconds: 2, Seed: 7})
	next, stop := make(chan struct{}, 1), make(chan struct{})
	next <- struct{}{}
	client, err := StartClient(ClientConfig{
		ID: 1, FPS: 100, Ingress: ingress,
		NextFrame: func(i int) []byte {
			if i >= n {
				return nil
			}
			select {
			case <-next:
			case <-stop:
				return nil
			}
			return (&core.Payload{Image: core.GrayToPayload(gen.GrayFrame(i))}).Encode()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(stop)
		client.Close()
	}()
	out := make([][]core.Detection, n)
	timeout := time.After(60 * time.Second)
	for i := range out {
		select {
		case res := <-client.Results():
			if res.FrameNo != uint64(i+1) {
				t.Fatalf("result for frame %d, want %d", res.FrameNo, i+1)
			}
			out[i] = res.Detections
			next <- struct{}{}
		case <-timeout:
			t.Fatalf("no result for frame %d", i+1)
		}
	}
	return out
}

// TestNodeRegistersAndHeartbeats: a node naming an orchestrator registers
// under its node name at start and stops heartbeating at Close.
func TestNodeRegistersAndHeartbeats(t *testing.T) {
	root := orchestrator.NewRoot()
	srv := httptest.NewServer(orchestrator.NewAPIServer(root).Handler())
	defer srv.Close()
	n := startTestNode(t, NodeConfig{
		Mode: "scatter++", Services: loopbackServices(wire.StepPrimary), Orchestrator: srv.URL,
		Node: &orchestrator.NodeInfo{Name: "E1", Cluster: "edge", CPUCores: 2, MemBytes: 1 << 30},
	}, testModel(t))
	nodes := root.Nodes()
	if len(nodes) != 1 || nodes[0].Name != "E1" {
		t.Fatalf("registered nodes %+v, want E1", nodes)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := StartNode(NodeConfig{Services: loopbackServices(wire.StepPrimary), Orchestrator: srv.URL,
		Node: &orchestrator.NodeInfo{Name: "E2"}}, testModel(t)); err == nil {
		t.Error("started against an orchestrator that is down")
	}
}
