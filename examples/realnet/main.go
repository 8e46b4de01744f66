// Realnet: run the complete real system in one process — the Oakestra-
// style orchestrator schedules the five-service SLA onto registered
// nodes, the placed services start as UDP workers executing the actual
// vision algorithms (scAtteR++ wiring with sidecar queues), and a client
// streams the synthetic clip and prints live results. Each placed machine
// is one agent.StartNode node, as cmd/scatter-node runs it.
//
// The run exercises the observability layer end to end: each node's
// workers feed its live metrics registry served over HTTP (scraped
// mid-stream, like an orchestrator would), stamp per-service spans onto
// every frame,
// and the collected spans are exported as Chrome trace-event JSON
// (realnet-trace.json) for Perfetto / chrome://tracing.
//
//	go run ./examples/realnet
package main

import (
	"fmt"
	"io"
	"log"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"strings"
	"time"

	scatter "github.com/edge-mar/scatter"
	"github.com/edge-mar/scatter/internal/agent"
)

func main() {
	// Keep the nodes' start-up log out of the demo's own output.
	slog.SetLogLoggerLevel(slog.LevelWarn)
	// 1. Control plane: register two "machines" with heterogeneous GPUs.
	orch := scatter.NewOrchestrator()
	nodes := []scatter.NodeInfo{
		{Name: "E1", Cluster: "edge", CPUCores: 16, GPUs: 2, GPUArch: "geforce-rtx", MemBytes: 128 << 30},
		{Name: "E2", Cluster: "edge", CPUCores: 64, GPUs: 2, GPUArch: "ampere", MemBytes: 264 << 30},
	}
	for _, n := range nodes {
		if err := orch.RegisterNode(n, time.Now()); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Deploy the scAtteR SLA: GPU services constrained to GPU nodes,
	//    primary+sift pinned to E1, the tail to E2 (the C12 layout).
	services := []scatter.ServiceSLA{
		{Name: "primary", Image: "scatter/primary", Replicas: 1,
			Requirements: scatter.Requirements{MemBytes: 400 << 20, Machines: []string{"E1"}}},
		{Name: "sift", Image: "scatter/sift", Replicas: 1,
			Requirements: scatter.Requirements{MemBytes: 1200 << 20, NeedsGPU: true, Machines: []string{"E1"}}},
		{Name: "encoding", Image: "scatter/encoding", Replicas: 1,
			Requirements: scatter.Requirements{MemBytes: 800 << 20, NeedsGPU: true, Machines: []string{"E2"}}},
		{Name: "lsh", Image: "scatter/lsh", Replicas: 1,
			Requirements: scatter.Requirements{MemBytes: 600 << 20, NeedsGPU: true, Machines: []string{"E2"}}},
		{Name: "matching", Image: "scatter/matching", Replicas: 1,
			Requirements: scatter.Requirements{MemBytes: 1000 << 20, NeedsGPU: true, Machines: []string{"E2"}}},
	}
	deployment, err := orch.Deploy(scatter.SLA{AppName: "scatter", Microservices: services})
	if err != nil {
		log.Fatal(err)
	}
	placedOn := map[string]string{}
	fmt.Println("orchestrator placement:")
	for _, inst := range deployment.Instances {
		placedOn[inst.Service] = inst.Node
		fmt.Printf("  %-9s -> %s\n", inst.Service, inst.Node)
	}

	// 3. Data plane: one node per placed machine, each starting the
	//    services placed on it as real UDP workers. E2 hosts the tail and
	//    starts first, so E1 can route to its bound addresses. Each node
	//    serves its own live registry and stamps a span onto each frame it
	//    processes, labelled with the node's name.
	video := scatter.NewVideoSource(scatter.VideoConfig{W: 320, H: 180, FPS: 10, Seconds: 2, Seed: 7})
	model, err := scatter.Train(video.ReferenceImages(), scatter.TrainConfig{})
	if err != nil {
		log.Fatal(err)
	}
	order := []scatter.Step{scatter.StepPrimary, scatter.StepSIFT, scatter.StepEncoding, scatter.StepLSH, scatter.StepMatching}
	running := map[string]*agent.Node{}
	routes := map[string][]string{}
	for _, name := range []string{"E2", "E1"} {
		cfg := agent.NodeConfig{
			Mode: "scatter++", Routes: maps.Clone(routes), Node: &scatter.NodeInfo{Name: name},
			ObsListen: "127.0.0.1:0", TraceSpans: true,
		}
		for _, step := range order {
			if placedOn[step.String()] == name {
				cfg.Services = append(cfg.Services, agent.ServiceSpec{Step: step.String(), Listen: "127.0.0.1:0"})
			}
		}
		node, err := agent.StartNode(cfg, model)
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		running[name] = node
		for _, step := range order {
			if w := node.Worker(step); w != nil {
				routes[step.String()] = []string{w.Addr()}
				fmt.Printf("  %-9s up on %s at %s\n", step, name, w.Addr())
			}
		}
		fmt.Printf("  %s telemetry at http://%s/metrics\n", name, node.ObsAddr())
	}
	e1 := running["E1"]

	// 4. Stream the clip and watch results come back.
	// The client counts its frames into E1's registry, the ingress node.
	client, err := scatter.StartClient(scatter.ClientConfig{
		ID: 1, FPS: 10, Ingress: e1.Worker(scatter.StepPrimary).Addr(), Obs: e1.Registry(),
		NextFrame: func(i int) []byte { return scatter.FramePayload(video, i) },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	fmt.Println("\nstreaming for 5 seconds...")
	deadline := time.After(5 * time.Second)
	scrape := time.After(2500 * time.Millisecond)
	received, detections := 0, 0
	var e2eSum time.Duration
	var spans []scatter.Span
loop:
	for {
		select {
		case res := <-client.Results():
			received++
			detections += len(res.Detections)
			e2eSum += res.E2E
			spans = append(spans, scatter.SpansFromWire(1, res.FrameNo, res.Spans)...)
		case <-scrape:
			// Scrape the live endpoint mid-run, as a monitoring system
			// (or the app-aware orchestrator) would.
			fmt.Println("\nlive /metrics sample at t=2.5s:")
			for _, name := range []string{"E1", "E2"} {
				for _, line := range scrapeMetrics(running[name].ObsAddr()) {
					fmt.Println(" ", name, line)
				}
			}
		case <-deadline:
			break loop
		}
	}
	fmt.Printf("\nsent=%d received=%d (%.0f%%)\n",
		client.Sent(), received, 100*float64(received)/float64(client.Sent()))
	if received > 0 {
		fmt.Printf("mean e2e=%v, %.1f detections/frame\n",
			(e2eSum / time.Duration(received)).Round(time.Millisecond),
			float64(detections)/float64(received))
	}

	fmt.Println("\nper-service sidecar analytics (worker counters vs live registry):")
	digest := map[string]scatter.ServiceDigest{}
	for _, node := range running {
		for _, d := range node.Registry().Digest() {
			digest[d.Service] = d
		}
	}
	for _, step := range order {
		st := running[placedOn[step.String()]].Worker(step).Stats()
		d := digest[step.String()]
		fmt.Printf("  %-9s received=%-4d processed=%-4d dropped(queue/threshold)=%d/%d  live{processed=%d p95=%v}\n",
			step, st.Received, st.Processed, st.DroppedQueue, st.DroppedThreshold,
			d.Processed, time.Duration(d.P95Micros)*time.Microsecond)
	}

	// 5. Export the collected spans as a Chrome trace: hosts become
	//    processes, services threads, each frame a flow of queue-wait and
	//    processing slices.
	full := 0
	perFrame := map[uint64]int{}
	for _, s := range spans {
		if s.Queue > 0 && s.Proc > 0 {
			perFrame[s.FrameNo]++
		}
	}
	for _, n := range perFrame {
		if n == len(order) {
			full++
		}
	}
	f, err := os.Create("realnet-trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := scatter.WriteChromeTrace(f, scatter.NormalizeSpans(spans)); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d spans to realnet-trace.json (%d frames with all %d stages timed end-to-end)\n",
		len(spans), full, len(order))
	fmt.Println("open it in Perfetto or chrome://tracing to see queue vs processing per service")
}

// scrapeMetrics fetches the Prometheus endpoint and returns the
// per-service processed counters — proof the registry is live mid-run.
func scrapeMetrics(addr string) []string {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return []string{"scrape failed: " + err.Error()}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "scatter_service_processed_total") ||
			strings.HasPrefix(line, "scatter_frames_") {
			out = append(out, line)
		}
	}
	return out
}
