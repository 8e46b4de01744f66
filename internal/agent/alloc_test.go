package agent

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

// workerHopAllocBudget is the enforced steady-state allocation budget
// for one full data-plane hop: client send → transport receive →
// decode → process → re-encode → forward → sink receive. The hop is
// designed to be allocation-free (pooled frames, pooled encode scratch,
// pooled transport buffers handed to the worker without a copy —
// DESIGN.md "Buffer ownership & pooling"); the budget leaves two
// allocations of slack for runtime noise (timer wheels, map growth in
// long-lived caches) so the test stays deterministic without hiding a
// real regression, which shows up as tens of allocations per frame.
// workerHopBytesBudget bounds the bytes the hop allocates beyond what the
// processor itself allocates: a decode that copied the payload shows up
// as the whole frame, ~900 KB at the ledger's ingress size.
const (
	workerHopAllocBudget = 2
	workerHopBytesBudget = 4 << 10
)

func TestWorkerHopAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	cases := []struct {
		name string
		proc hopProcessor
		size int
		// procAllocs and procBytes are what the processor allocates per
		// frame on its own: the replacing one copies 64 bytes out.
		procAllocs, procBytes float64
	}{
		{name: "keep/180KiB", proc: hopProcessor{step: wire.StepPrimary}, size: 180 << 10},
		{
			name:       "replace/ledger-ingress",
			proc:       hopProcessor{step: wire.StepPrimary, replace: 64},
			size:       ledgerIngressSize,
			procAllocs: 1,
			procBytes:  64,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs, bytes := workerHopAllocs(t, tc.proc, tc.size)
			if allocs > workerHopAllocBudget+tc.procAllocs {
				t.Errorf("worker hop allocates %.1f/op, budget %d plus the processor's %.0f",
					allocs, workerHopAllocBudget, tc.procAllocs)
			}
			if bytes > workerHopBytesBudget+tc.procBytes {
				t.Errorf("worker hop allocates %.0f B/op, budget %d plus the processor's %.0f",
					bytes, workerHopBytesBudget, tc.procBytes)
			}
		})
	}
}

// workerHopAllocs measures one steady-state hop through a scAtteR++
// worker running proc on a size-byte payload over UDP: the mean
// allocations and bytes per frame across the whole process, counted the
// way testing.AllocsPerRun counts.
func workerHopAllocs(t *testing.T, proc hopProcessor, size int) (allocs, bytes float64) {
	delivered := make(chan struct{}, 1)
	sink, err := listenEndpoint("udp", "127.0.0.1:0", func(data []byte, from net.Addr) {
		delivered <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	w, err := StartWorker(WorkerConfig{
		Step:       wire.StepPrimary,
		Mode:       core.ModeScatterPP,
		Processor:  proc,
		ListenAddr: "127.0.0.1:0",
		Router:     NewStaticRouter(nil),
		QueueCap:   4,
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

	fr := sinkBoundFrame(t, sink.LocalAddr(), size)
	data, err := fr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ingress := w.Addr()
	hop := func() {
		if err := src.SendToAddr(ingress, data); err != nil {
			t.Fatal(err)
		}
		<-delivered
	}
	for i := 0; i < 4; i++ { // warm every pool on the path
		hop()
	}
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hop()
	}
	runtime.ReadMemStats(&after)
	if st := w.Stats(); st.Errors > 0 || st.DroppedQueue > 0 || st.DroppedThreshold > 0 {
		t.Fatalf("worker dropped or errored: %+v", st)
	}
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// countingFramePool wraps wire.FramePool with ownership accounting: it
// tracks which envelopes are checked out and flags a Put of a frame that
// is not (double release) alongside the Get/Put balance.
type countingFramePool struct {
	mu     sync.Mutex
	pool   wire.FramePool
	gets   int
	puts   int
	badPut int
	out    map[*wire.Frame]bool
}

func newCountingFramePool() *countingFramePool {
	return &countingFramePool{out: make(map[*wire.Frame]bool)}
}

func (p *countingFramePool) Get() *wire.Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr := p.pool.Get()
	p.gets++
	p.out[fr] = true
	return fr
}

func (p *countingFramePool) Put(fr *wire.Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.puts++
	if !p.out[fr] {
		p.badPut++
	}
	delete(p.out, fr)
	p.pool.Put(fr)
}

// verify asserts every checked-out envelope came back exactly once.
func (p *countingFramePool) verify(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.badPut > 0 {
		t.Errorf("%d frames released twice (or never checked out)", p.badPut)
	}
	if p.gets != p.puts {
		t.Errorf("frame pool imbalance: %d gets, %d puts, %d outstanding",
			p.gets, p.puts, len(p.out))
	}
}

// waitStats polls until cond passes or the deadline expires, returning
// the final snapshot either way.
func waitStats(w *Worker, cond func(WorkerStats) bool) WorkerStats {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := w.Stats()
		if cond(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// countingReleaser stands between a worker and its endpoint and checks
// receive-buffer ownership: every buffer the endpoint hands over must
// come back exactly once, and it forwards each release to the endpoint
// that handed the buffer out.
type countingReleaser struct {
	mu       sync.Mutex
	out      map[*byte]transport.Releaser
	taken    int
	released int
	badRel   int
}

func newCountingReleaser() *countingReleaser {
	return &countingReleaser{out: make(map[*byte]transport.Releaser)}
}

// wrap is a WorkerConfig.wrapOwner: it books each buffer as taken and
// makes the worker release it here.
func (r *countingReleaser) wrap(h transport.OwningHandler) transport.OwningHandler {
	return func(data []byte, from net.Addr, rel transport.Releaser) {
		r.mu.Lock()
		r.out[unsafe.SliceData(data)] = rel
		r.taken++
		r.mu.Unlock()
		h(data, from, r)
	}
}

func (r *countingReleaser) Release(buf []byte) {
	r.mu.Lock()
	rel, ok := r.out[unsafe.SliceData(buf)]
	if !ok {
		r.badRel++
		r.mu.Unlock()
		return
	}
	delete(r.out, unsafe.SliceData(buf))
	r.released++
	r.mu.Unlock()
	rel.Release(buf)
}

// verify asserts every buffer handed over came back exactly once.
func (r *countingReleaser) verify(t *testing.T) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.badRel > 0 {
		t.Errorf("%d receive buffers released twice (or never handed over)", r.badRel)
	}
	if r.taken != r.released {
		t.Errorf("receive buffers: %d handed over, %d released, %d outstanding",
			r.taken, r.released, len(r.out))
	}
}

// heldProcessor holds each frame until its worker's done closes, so every
// frame received behind the first is still queued when Close starts.
type heldProcessor struct {
	core.Processor
	worker atomic.Pointer[Worker]
}

func (p *heldProcessor) Process(fr *wire.Frame) error {
	<-p.worker.Load().done
	return p.Processor.Process(fr)
}

// TestFramePoolReleaseOnAllExits drives a worker through each exit an
// envelope and its receive buffer can take — processed, threshold-drop at
// dequeue, shutdown-drain, queue overflow, admission reject, processing
// error and the scAtteR busy drop — over UDP and over TCP, and asserts
// every frame goes back to the pool and every receive buffer back to its
// endpoint exactly once.
func TestFramePoolReleaseOnAllExits(t *testing.T) {
	const n = 12
	fast := hopProcessor{step: wire.StepPrimary}
	slow := hopProcessor{step: wire.StepPrimary, delay: 30 * time.Millisecond}
	failing := hopProcessor{step: wire.StepPrimary, err: errors.New("processing failed")}
	pp, scatter := core.ModeScatterPP, core.ModeScatter
	cases := []struct {
		name   string
		cfg    WorkerConfig
		reject bool
		// closeEarly closes once the frames are received, while most still
		// sit in the queue; otherwise Close waits until all have left.
		closeEarly bool
		// hold wraps the processor in a heldProcessor.
		hold bool
		want func(WorkerStats) bool
	}{
		{
			name: "processed",
			cfg:  WorkerConfig{Mode: pp, Processor: fast},
			want: func(st WorkerStats) bool { return st.Processed == n },
		},
		{
			name: "threshold-drop",
			cfg:  WorkerConfig{Mode: pp, Processor: slow, Threshold: 40 * time.Millisecond},
			want: func(st WorkerStats) bool { return st.DroppedThreshold > 0 },
		},
		{
			name:       "shutdown-drain",
			cfg:        WorkerConfig{Mode: pp, Processor: fast, Threshold: 10 * time.Second},
			closeEarly: true,
			hold:       true,
			want: func(st WorkerStats) bool {
				return st.DroppedShutdown > 0 && st.Processed+st.DroppedShutdown == n
			},
		},
		{
			name: "queue-overflow",
			cfg:  WorkerConfig{Mode: pp, Processor: slow, Threshold: 10 * time.Second, QueueCap: 2},
			want: func(st WorkerStats) bool { return st.DroppedQueue > 0 },
		},
		{
			name:   "admission-reject",
			cfg:    WorkerConfig{Mode: pp, Processor: fast},
			reject: true,
			want:   func(st WorkerStats) bool { return st.DroppedAdmission == n },
		},
		{
			name: "processing-error",
			cfg:  WorkerConfig{Mode: pp, Processor: failing},
			want: func(st WorkerStats) bool { return st.Errors == n },
		},
		{
			name: "busy-drop",
			cfg:  WorkerConfig{Mode: scatter, Processor: slow},
			want: func(st WorkerStats) bool { return st.DroppedBusy > 0 && st.Processed > 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, network := range []string{"udp", "tcp"} {
				t.Run(network, func(t *testing.T) {
					pool := newCountingFramePool()
					bufs := newCountingReleaser()
					cfg := tc.cfg
					cfg.Network = network
					cfg.framePool = pool
					cfg.wrapOwner = bufs.wrap
					var held *heldProcessor
					if tc.hold {
						held = &heldProcessor{Processor: cfg.Processor}
						cfg.Processor = held
					}
					w, send := startHopRig(t, cfg, nil)
					if held != nil {
						held.worker.Store(w)
					}
					if tc.reject {
						w.SetAdmitState(core.AdmitReject)
					}
					send(n)
					waitStats(w, func(st WorkerStats) bool {
						left := st.Processed + st.Errors + st.DroppedBusy + st.DroppedThreshold +
							st.DroppedQueue + st.DroppedAdmission
						return st.Received == n && (tc.closeEarly || left == n)
					})
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					pool.verify(t)
					bufs.verify(t)
					if st := w.Stats(); !tc.want(st) {
						t.Errorf("worker did not take the %s exit: %+v", tc.name, st)
					}
				})
			}
		})
	}
}
