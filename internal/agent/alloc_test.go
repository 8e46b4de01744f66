package agent

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/wire"
)

// workerHopAllocBudget is the enforced steady-state allocation budget
// for one full data-plane hop: client send → transport receive →
// decode → process → re-encode → forward → sink receive. The hop is
// designed to be allocation-free (pooled frames, pooled encode scratch,
// pooled transport buffers — DESIGN.md "Buffer ownership & pooling");
// the budget leaves two allocations of slack for runtime noise
// (timer wheels, map growth in long-lived caches) so the test stays
// deterministic without hiding a real regression, which shows up as
// tens of allocations per frame.
const workerHopAllocBudget = 2

func TestWorkerHopAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
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
		Processor:  hopProcessor{step: wire.StepPrimary},
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

	fr := sinkBoundFrame(t, sink.LocalAddr(), 180<<10)
	data, err := fr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ingress := w.Addr()
	for i := 0; i < 4; i++ { // warm every pool on the path
		if err := src.SendToAddr(ingress, data); err != nil {
			t.Fatal(err)
		}
		<-delivered
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := src.SendToAddr(ingress, data); err != nil {
			t.Fatal(err)
		}
		<-delivered
	})
	if avg > workerHopAllocBudget {
		t.Errorf("worker hop allocates %.1f/op, budget %d", avg, workerHopAllocBudget)
	}
	if st := w.Stats(); st.Errors > 0 || st.DroppedQueue > 0 || st.DroppedThreshold > 0 {
		t.Fatalf("worker dropped or errored: %+v", st)
	}
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

// TestFramePoolReleaseOnAllExits drives a sidecar worker through each
// exit an envelope can take — processed, threshold-drop at dequeue,
// shutdown-drain, queue overflow and admission reject — and asserts every
// frame is released to the pool exactly once.
func TestFramePoolReleaseOnAllExits(t *testing.T) {
	const n = 12
	fast := hopProcessor{step: wire.StepPrimary}
	slow := hopProcessor{step: wire.StepPrimary, delay: 30 * time.Millisecond}
	cases := []struct {
		name   string
		cfg    WorkerConfig
		reject bool
		// closeEarly closes once the frames are received, while most still
		// sit in the queue; otherwise Close waits until all have left.
		closeEarly bool
		want       func(WorkerStats) bool
	}{
		{
			name: "processed",
			cfg:  WorkerConfig{Processor: fast},
			want: func(st WorkerStats) bool { return st.Processed == n },
		},
		{
			name: "threshold-drop",
			cfg:  WorkerConfig{Processor: slow, Threshold: 40 * time.Millisecond},
			want: func(st WorkerStats) bool { return st.DroppedThreshold > 0 },
		},
		{
			name:       "shutdown-drain",
			cfg:        WorkerConfig{Processor: slow, Threshold: 10 * time.Second},
			closeEarly: true,
			want: func(st WorkerStats) bool {
				return st.DroppedShutdown > 0 && st.Processed+st.DroppedShutdown == n
			},
		},
		{
			name: "queue-overflow",
			cfg:  WorkerConfig{Processor: slow, Threshold: 10 * time.Second, QueueCap: 2},
			want: func(st WorkerStats) bool { return st.DroppedQueue > 0 },
		},
		{
			name:   "admission-reject",
			cfg:    WorkerConfig{Processor: fast},
			reject: true,
			want:   func(st WorkerStats) bool { return st.DroppedAdmission == n },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := newCountingFramePool()
			tc.cfg.framePool = pool
			w, send := startHopRig(t, tc.cfg, nil)
			if tc.reject {
				w.SetAdmitState(core.AdmitReject)
			}
			send(n)
			waitStats(w, func(st WorkerStats) bool {
				left := st.Processed + st.DroppedThreshold + st.DroppedQueue + st.DroppedAdmission
				return st.Received == n && (tc.closeEarly || left == n)
			})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			pool.verify(t)
			if st := w.Stats(); !tc.want(st) {
				t.Errorf("worker did not take the %s exit: %+v", tc.name, st)
			}
		})
	}
}
