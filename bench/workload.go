package main

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/agent"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

// Analysis resolution every workload's primary reduces frames to.
const analysisW, analysisH = 320, 180

// workload is one set of inputs. BENCHMARK.json repeats name and why.
type workload struct {
	name string
	why  string
	// w, h is the size of the frames clients send.
	w, h int
	// clients each keep one frame in flight (a closed loop).
	clients int
	// segment is how long frames stream between two calibrations.
	segment time.Duration
	// fastPath wires a core.FastPathGate between matching and primary.
	fastPath bool
	// reference has warm-up compare the first results with an in-process
	// pass through fresh processors. It needs results that depend on the
	// frames alone: one client, no gate, no database writes.
	reference bool
	// padViews pads the reference database with this many extra views and
	// replaces mutatePerFrame of them beside every frame sent.
	padViews       int
	mutatePerFrame int
}

var workloads = []workload{
	{
		name: "solo-720p",
		why:  "one client, 1280x720, full recognition every frame: the paper's operating point; sift and matching do the work, primary pays the 720p decode and resize, queues stay empty",
		w:    1280, h: 720, clients: 1, segment: 250 * time.Millisecond, reference: true,
	},
	{
		name: "duo-qvga",
		why:  "two clients, 320x180, one datagram per hop: both cores busy, frames wait in the sift sidecar and GC competes with kernels, so CPU or garbage saved anywhere pays back more than its share",
		w:    analysisW, h: analysisH, clients: 2, segment: time.Second,
	},
	{
		name: "tracked-720p",
		why:  "one client, 1280x720, fast-path gate on: most frames are answered at primary, so p50 is transport+wire+agent+gate alone and vision work shows only in p95 and frames/s",
		w:    1280, h: 720, clients: 1, segment: 250 * time.Millisecond, fastPath: true,
	},
	{
		name: "bigdb-100k",
		why:  "one client, 320x180, reference database padded to 100003 views with 8 views replaced beside every frame: lsh is about half the frame here and under 1% elsewhere; writes contend with reads",
		w:    analysisW, h: analysisH, clients: 1, segment: 250 * time.Millisecond,
		padViews: 100000, mutatePerFrame: 8,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fixture is everything a workload needs that does not depend on whether
// the run is traced: the rendered clip, its ground truth, the trained
// model and the reference views matching is given.
type fixture struct {
	wl       workload
	seed     int64
	start    int          // where in the clip's cycle the first client starts
	payloads [][]byte     // encoded ingress payload per clip frame
	truth    [][]truthBox // per clip frame
	model    *core.Model
	views    []*core.ReferenceObject
}

// clipIndex maps a stream position to a clip frame, playing the clip
// forwards then backwards.
func clipIndex(pos, n int) int {
	if n < 2 {
		return 0
	}
	m := pos % (2*n - 2)
	if m < n {
		return m
	}
	return 2*n - 2 - m
}

// Every run replays the same recording, as the paper replays one
// pre-recorded clip: the first clipFrames frames of the scene sceneSeed
// renders, played forwards then backwards so the camera never jumps. What
// a frame costs depends on what is in view. A scene of its own per seed
// moved frame_ms_p50 by 3 % from seed to seed, another stretch of the
// recording per seed by 10 %: as much as the changes the benchmark is
// there to resolve. So the seed decides where in the clip each client
// starts, and seeds the training RNG, the padded views and the stream of
// replacements; a run plays the whole clip several times over from
// wherever it starts.
const (
	sceneSeed  = 7
	clipFrames = 60
)

// prepare renders the clip, trains the model and builds the database.
func prepare(wl workload, seed int64) (*fixture, error) {
	gen := trace.NewGenerator(trace.Config{W: wl.w, H: wl.h, Seed: sceneSeed})
	refs := gen.ReferenceImages()
	fx := &fixture{
		wl: wl, seed: seed,
		start:    rand.New(rand.NewSource(seed)).Intn(2*clipFrames - 2),
		payloads: make([][]byte, clipFrames),
		truth:    make([][]truthBox, clipFrames),
	}
	// Rendering is most of a 720p set-up; split it over two goroutines,
	// one per core of the box the benchmark is sized for.
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := part; i < clipFrames; i += 2 {
				img := gen.GrayFrame(i)
				fx.payloads[i] = (&core.Payload{Image: core.GrayToPayload(img)}).Encode()
				fx.truth[i] = groundTruth(gen, refs, i)
			}
		}(part)
	}
	model, err := core.Train(refs, core.TrainConfig{Seed: seed})
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	fx.model = model
	fx.views = model.Objects
	if wl.padViews > 0 {
		fx.padDatabase()
	}
	return fx, nil
}

// padDatabase adds padViews random vectors to the index and gives
// matching one reference view per id. A padded view shares the features
// of real object id mod 3, so whichever views lsh returns, the ratio test
// and RANSAC run on real features and recall stays meaningful. Purely
// random pads that map to no object would give recall 0: a frame's Fisher
// vector is no closer to its own object's reference than to a random one.
func (fx *fixture) padDatabase() {
	objects := fx.model.Objects
	views := make([]*core.ReferenceObject, len(objects)+fx.wl.padViews)
	copy(views, objects)
	// Hashing a vector is most of an Add and runs outside the index lock,
	// so two goroutines, each with its own stream of vectors, halve it.
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(fx.seed*2 + int64(part)))
			vec := make([]float32, fx.model.Index.Dim())
			for id := len(objects) + part; id < len(views); id += 2 {
				randomVector(rng, vec)
				fx.model.Index.Add(id, vec)
				obj := objects[id%len(objects)]
				views[id] = &core.ReferenceObject{
					ID: int32(id), Name: obj.Name, Features: obj.Features, W: obj.W, H: obj.H,
				}
			}
		}(part)
	}
	wg.Wait()
	fx.views = views
}

func randomVector(rng *rand.Rand, dst []float32) {
	for i := range dst {
		dst[i] = float32(rng.NormFloat64())
	}
}

// fastPathConfig pins the share of frames the gate answers. With the
// gate's defaults (refresh every 30th frame, confidence floor 0.5) the
// share depends on how confidently a seed's textures track, between 91 %
// and 97 %, which puts the 95th percentile on either side of the
// skip/refresh divide from one seed to the next. Refreshing every 10th
// frame with a floor no scene reaches fixes it at 90 %: the median is a
// skipped frame and the 95th percentile a refresh frame, on every seed.
var fastPathConfig = core.FastPathConfig{Enabled: true, RefreshEvery: 10, MinConfidence: 0.1}

// cluster is the five services running as real workers over loopback UDP
// in this process, scAtteR++ wiring.
type cluster struct {
	workers [wire.NumSteps]*agent.Worker
	conns   []*transport.Conn // the workers' sockets, for receive-path counters
	ingress string
}

// startCluster starts the workers. With a tracer, every processor and
// every worker endpoint is wrapped by the timing decorators.
func startCluster(fx *fixture, tr *tracer) (*cluster, error) {
	model := *fx.model
	model.Objects = fx.views
	procs := core.NewProcessors(&model, true, analysisW, analysisH)
	c := &cluster{}
	if fx.wl.fastPath {
		gate := core.NewFastPathGate(fastPathConfig)
		procs[wire.StepPrimary].(*core.Primary).SetFastPath(gate)
		procs[wire.StepMatching].(*core.Matching).SetFastPath(gate)
	}
	router := agent.NewStaticRouter(nil) // routes are set once every worker is bound
	// A worker's warnings (a failed forward) explain a failed frame.
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	table := map[wire.Step][]string{}
	for step := wire.StepPrimary; step < wire.StepDone; step++ {
		proc := procs[step]
		if tr != nil {
			proc = traceProcessor(proc, tr)
		}
		from := int(step)
		w, err := agent.StartWorker(agent.WorkerConfig{
			Step: step, Mode: core.ModeScatterPP, Processor: proc,
			ListenAddr: "127.0.0.1:0", Router: router, Log: log,
			WrapEndpoint: func(ep transport.Endpoint) transport.Endpoint {
				if conn, ok := ep.(*transport.Conn); ok {
					c.conns = append(c.conns, conn)
				}
				if tr == nil {
					return ep
				}
				return &timedEndpoint{Endpoint: ep, tr: tr, from: from}
			},
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("start %s: %w", step, err)
		}
		c.workers[step] = w
		table[step] = []string{w.Addr()}
	}
	router.SetRoutes(table)
	c.ingress = table[wire.StepPrimary][0]
	return c, nil
}

func (c *cluster) Close() {
	for _, w := range c.workers {
		if w != nil {
			w.Close() // only ever reports the socket's close error
		}
	}
}

// mutator replaces padded views while frames flow: the write load beside
// the read load. It owns one goroutine, stopped by Close.
type mutator struct {
	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// startMutator returns nil when the workload mutates nothing.
func startMutator(fx *fixture) *mutator {
	if fx.wl.mutatePerFrame == 0 {
		return nil
	}
	m := &mutator{kick: make(chan struct{}, 1), done: make(chan struct{})}
	index := fx.model.Index
	first, n := len(fx.model.Objects), fx.wl.padViews
	rng := rand.New(rand.NewSource(fx.seed*2 + 2))
	vec := make([]float32, index.Dim())
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		next := 0
		for {
			select {
			case <-m.done:
				return
			case <-m.kick:
			}
			// Oldest view out, fresh vector in under the same id, so
			// matching still knows every id lsh can return.
			for i := 0; i < fx.wl.mutatePerFrame; i++ {
				id := first + next%n
				next++
				randomVector(rng, vec)
				index.Remove(id)
				index.Add(id, vec)
			}
		}
	}()
	return m
}

// frameSent asks for one round of replacements. A round takes a fraction
// of a frame time, so the one-slot buffer never drops a request.
func (m *mutator) frameSent() {
	if m == nil {
		return
	}
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

func (m *mutator) Close() {
	if m == nil {
		return
	}
	close(m.done)
	m.wg.Wait()
}
