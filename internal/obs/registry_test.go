package obs

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantileKnownDistribution(t *testing.T) {
	var h Histogram
	// 100 samples at 1ms, 100 at 10ms: p50 falls in the 1ms bucket
	// region, p95/p99 in the 10ms region.
	for i := 0; i < 100; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	if got := h.Count(); got != 200 {
		t.Fatalf("count = %d, want 200", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 400*time.Microsecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want within the 1ms bucket [0.4ms, 2ms]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 5*time.Millisecond || p99 > 13*time.Millisecond {
		t.Errorf("p99 = %v, want within the 10ms bucket [5ms, 13ms]", p99)
	}
	if h.Mean() != (100*time.Millisecond+1000*time.Millisecond)/200 {
		t.Errorf("mean = %v, want 5.5ms", h.Mean())
	}
}

func TestHistogramQuantileEmptyAndBounds(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.95); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	h.Observe(-time.Second) // clamped to zero
	if got := h.Quantile(1.5); got > 50*time.Microsecond {
		t.Errorf("clamped sample quantile = %v, want within first bucket", got)
	}
	h.Observe(time.Hour) // overflow bucket
	if got := h.Quantile(1); got <= 0 {
		t.Errorf("overflow quantile = %v, want positive lower bound", got)
	}
}

func TestHistogramBucketMonotonicity(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		10 * time.Microsecond, time.Millisecond, 7 * time.Millisecond,
		40 * time.Millisecond, 2 * time.Second,
	} {
		h.Observe(d)
	}
	q := []time.Duration{h.Quantile(0.1), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)}
	for i := 1; i < len(q); i++ {
		if q[i] < q[i-1] {
			t.Fatalf("quantiles not monotone: %v", q)
		}
	}
}

func TestRegistryDigest(t *testing.T) {
	reg := NewRegistry()
	m := reg.Service("sift")
	m.Arrived.Add(10)
	m.Dropped.Add(2)
	for i := 0; i < 8; i++ {
		m.RecordProcessed(time.Millisecond, 4*time.Millisecond)
	}
	m.QueueLen.Set(3)
	digest := reg.Digest()
	if len(digest) != 1 {
		t.Fatalf("digest has %d services, want 1", len(digest))
	}
	d := digest[0]
	if d.Service != "sift" || d.Arrived != 10 || d.Processed != 8 || d.Dropped != 2 {
		t.Errorf("digest counters wrong: %+v", d)
	}
	if d.DropRatio != 0.2 {
		t.Errorf("drop ratio = %g, want 0.2", d.DropRatio)
	}
	if d.QueueLen != 3 {
		t.Errorf("queue len = %d, want 3", d.QueueLen)
	}
	// Service latency is 5ms; the estimate must be within the containing
	// bucket (3.2ms, 6.4ms].
	p95 := time.Duration(d.P95Micros) * time.Microsecond
	if p95 <= 3200*time.Microsecond || p95 > 6400*time.Microsecond {
		t.Errorf("p95 = %v, want within (3.2ms, 6.4ms]", p95)
	}
}

// TestRegistryConcurrentStress exercises the registry from many
// goroutines simultaneously; run with -race to verify the lock-free
// instruments and the service map are safe.
func TestRegistryConcurrentStress(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 12
	const perG = 2000
	services := []string{"primary", "sift", "encoding", "lsh", "matching"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := services[(g+i)%len(services)]
				m := reg.Service(name)
				m.Arrived.Inc()
				m.RecordProcessed(time.Duration(i%5)*time.Millisecond,
					time.Duration(1+i%7)*time.Millisecond)
				if i%10 == 0 {
					m.Dropped.Inc()
				}
				m.QueueLen.Set(int64(i % 8))
				if i%100 == 0 {
					_ = reg.Digest() // concurrent readers
				}
			}
		}(g)
	}
	wg.Wait()
	var arrived, processed uint64
	for _, d := range reg.Digest() {
		arrived += d.Arrived
		processed += d.Processed
	}
	want := uint64(goroutines * perG)
	if arrived != want || processed != want {
		t.Errorf("arrived=%d processed=%d, want %d each", arrived, processed, want)
	}
}

func TestRecorderBoundAndNil(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(Span{FrameNo: uint64(i)})
	}
	if r.Len() != 2 || r.Dropped() != 3 {
		t.Errorf("len=%d dropped=%d, want 2 and 3", r.Len(), r.Dropped())
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Errorf("reset left len=%d dropped=%d", r.Len(), r.Dropped())
	}

	var nilRec *Recorder
	nilRec.Record(Span{}) // must not panic
	if nilRec.Spans() != nil || nilRec.Len() != 0 || nilRec.Dropped() != 0 {
		t.Error("nil recorder should be a no-op sink")
	}
	nilRec.Reset()
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Span{ClientID: uint32(g), FrameNo: uint64(i)})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 4000 {
		t.Errorf("len = %d, want 4000", r.Len())
	}
}

// Dropped returns how many spans exceeded the bound. Safe on a nil
// receiver.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Mean returns the average sample, or zero when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sumNs.Load()) / n)
}
