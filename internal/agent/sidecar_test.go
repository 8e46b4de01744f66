package agent

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/wire"
)

// startHopRig starts a scAtteR++ primary worker on loopback UDP, filling
// in cfg's step, mode, listen address and router, together with a sink
// the worker delivers finished frames to (onDeliver may be nil). send
// fires n 4 KiB frames numbered from 1 at the worker. The worker is NOT
// closed on cleanup: the tests here assert on what Close leaves behind.
func startHopRig(t *testing.T, cfg WorkerConfig, onDeliver func(*wire.Frame)) (w *Worker, send func(n int)) {
	t.Helper()
	sink, err := listenEndpoint("udp", "127.0.0.1:0", func(data []byte, from net.Addr) {
		if onDeliver == nil {
			return
		}
		var fr wire.Frame
		if err := fr.UnmarshalBinary(data); err == nil {
			onDeliver(&fr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	src, err := listenEndpoint("udp", "127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })

	cfg.Step = wire.StepPrimary
	cfg.Mode = core.ModeScatterPP
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.Router = NewStaticRouter(nil)
	w, err = StartWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr := sinkBoundFrame(t, sink.LocalAddr(), 4<<10)
	send = func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			fr.FrameNo = uint64(i + 1)
			data, err := fr.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := src.SendToAddr(w.Addr(), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w, send
}

// TestSidecarNeverAdmitsPastThreshold is the regression for the sidecar's
// latency contract: behind a processor slower than the arrival burst,
// frames whose queue wait has crossed the threshold are dropped at
// dequeue, never processed. Every frame that reaches the sink carries its
// worker-recorded queue wait in its stage record, so the contract is
// checked on the delivered evidence, not just on worker counters.
func TestSidecarNeverAdmitsPastThreshold(t *testing.T) {
	const threshold = 40 * time.Millisecond
	var mu sync.Mutex
	var waits []time.Duration
	w, send := startHopRig(t, WorkerConfig{
		Processor: hopProcessor{step: wire.StepPrimary, delay: 30 * time.Millisecond},
		Threshold: threshold,
		QueueCap:  32,
	}, func(fr *wire.Frame) {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range fr.Stages {
			waits = append(waits, time.Duration(s.QueueMicros)*time.Microsecond)
		}
	})
	defer w.Close()

	const n = 12
	send(n)
	st := waitStats(w, func(st WorkerStats) bool {
		return st.Processed+st.DroppedThreshold+st.DroppedQueue == n
	})
	if st.Processed+st.DroppedThreshold+st.DroppedQueue != n {
		t.Fatalf("frames unaccounted for: %+v", st)
	}
	if st.DroppedThreshold == 0 {
		t.Errorf("30ms per frame against a 40ms threshold produced no threshold drops: %+v", st)
	}
	if st.Processed == 0 {
		t.Errorf("nothing was processed: %+v", st)
	}
	time.Sleep(20 * time.Millisecond) // let in-flight deliveries land
	mu.Lock()
	defer mu.Unlock()
	if len(waits) == 0 {
		t.Fatal("no delivered frames carried stage records")
	}
	for _, wait := range waits {
		if wait > threshold {
			t.Errorf("delivered frame waited %v in the queue, over the %v threshold", wait, threshold)
		}
	}
}

// TestSidecarShutdownDropSpans checks shutdown accounting: every frame
// still queued behind a slow processor when the worker closes is counted
// in DroppedShutdown and leaves exactly one shutdown-outcome span. The
// sidecar's select may still pick a queued frame over the done signal
// after Close, so the number abandoned is whatever was not processed —
// the test asserts conservation rather than a fixed count.
func TestSidecarShutdownDropSpans(t *testing.T) {
	rec := obs.NewRecorder(0)
	w, send := startHopRig(t, WorkerConfig{
		Processor:  hopProcessor{step: wire.StepPrimary, delay: 50 * time.Millisecond},
		Threshold:  10 * time.Second,
		QueueCap:   32,
		TraceSpans: true,
		Spans:      rec,
		Host:       "E1",
	}, nil)

	const n = 17 // one in the processor, sixteen queued behind it
	send(n)
	waitStats(w, func(st WorkerStats) bool { return st.Received == n })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.DroppedShutdown == 0 || st.Processed+st.DroppedShutdown != n {
		t.Fatalf("processed %d + shutdown drops %d, want %d with at least one drop (%+v)",
			st.Processed, st.DroppedShutdown, n, st)
	}
	dropped := make(map[uint64]int)
	for _, s := range rec.Spans() {
		if s.Outcome == obs.OutcomeShutdown {
			dropped[s.FrameNo]++
		}
	}
	if uint64(len(dropped)) != st.DroppedShutdown {
		t.Errorf("%d frames have shutdown spans, want %d (one per abandoned frame)",
			len(dropped), st.DroppedShutdown)
	}
	for frameNo, spans := range dropped {
		if spans != 1 {
			t.Errorf("frame %d has %d shutdown spans, want 1", frameNo, spans)
		}
	}
}
