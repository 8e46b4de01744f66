package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, held states).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histogram bucket layout: exponential upper bounds from 50 µs to ~26 s
// (doubling), chosen so the paper's 1–100 ms service latencies land in
// the well-resolved middle of the range. The last bucket is +Inf.
const histBuckets = 20

var histBounds = func() [histBuckets]time.Duration {
	var b [histBuckets]time.Duration
	d := 50 * time.Microsecond
	for i := 0; i < histBuckets-1; i++ {
		b[i] = d
		d *= 2
	}
	b[histBuckets-1] = 1<<63 - 1
	return b
}()

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation without locks. Quantiles are extracted by linear
// interpolation inside the bucket containing the target rank, so the
// error is bounded by the bucket resolution.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(histBuckets-1, func(i int) bool { return d <= histBounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Quantile estimates the p-quantile (p in [0, 1]) from the bucket counts.
// Within the target bucket the estimate interpolates linearly between the
// bucket's bounds; the overflow bucket reports its lower bound.
func (h *Histogram) Quantile(p float64) time.Duration {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Snapshot the buckets: concurrent Observes may land between loads,
	// but each bucket read is atomic and the total is recomputed from the
	// snapshot, so the estimate is internally consistent.
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var cum uint64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := time.Duration(0)
			if i > 0 {
				lo = histBounds[i-1]
			}
			hi := histBounds[i]
			if i == histBuckets-1 {
				return lo // overflow bucket: no meaningful upper bound
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += n
	}
	return histBounds[histBuckets-2]
}

// Buckets returns a snapshot of (upper bound, count) pairs for
// exposition; the final bound is reported as zero meaning +Inf.
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, 0, histBuckets)
	for i := 0; i < histBuckets; i++ {
		bound := histBounds[i]
		if i == histBuckets-1 {
			bound = 0
		}
		out = append(out, BucketCount{UpperBound: bound, Count: h.buckets[i].Load()})
	}
	return out
}

// BucketCount is one histogram bucket in a snapshot.
type BucketCount struct {
	UpperBound time.Duration // zero means +Inf
	Count      uint64
}

// ServiceMetrics is the live per-service instrument set — the concurrent
// counterpart of metrics.ServiceStats, fed by the same hooks.
type ServiceMetrics struct {
	Arrived   Counter
	Processed Counter
	Dropped   Counter
	Errors    Counter
	// AdmissionDrops counts ingress frames refused by admission control.
	// Kept out of Dropped so the distress drop ratio — the autoscaler's
	// recovery signal — reflects the service, not the controller.
	AdmissionDrops Counter
	QueueLen       Gauge
	QueueLat       Histogram // time from ingress to processing start
	ProcLat        Histogram // processing time
	SvcLat         Histogram // queue + processing (the paper's service latency)
}

// RecordProcessed updates every instrument for one completed execution.
func (m *ServiceMetrics) RecordProcessed(queue, proc time.Duration) {
	m.Processed.Inc()
	m.QueueLat.Observe(queue)
	m.ProcLat.Observe(proc)
	m.SvcLat.Observe(queue + proc)
}

// Registry is a live, concurrency-safe metrics registry: one
// ServiceMetrics per service name plus registry-level counters. Lookups
// after the first use a read lock; all instrument operations are atomic.
type Registry struct {
	mu       sync.RWMutex
	services map[string]*ServiceMetrics
	start    time.Time

	FramesSent      Counter
	FramesDelivered Counter

	// routeSrc holds the installed routeSource (SetRouteSource); nil-fn
	// until a stats-driven router starts publishing.
	routeSrc atomic.Value
	// fastPathSrc holds the installed fastPathSource
	// (SetFastPathSource); nil-fn until a fast-path gate is wired in.
	fastPathSrc atomic.Value
	// admissionSrc holds the installed admissionSource
	// (SetAdmissionSource); nil-fn until an admission enforcement point
	// is wired in.
	admissionSrc atomic.Value
}

// NewRegistry returns an empty registry anchored at now.
func NewRegistry() *Registry {
	return &Registry{services: make(map[string]*ServiceMetrics), start: time.Now()}
}

// Start returns the registry's creation time (the run origin real-mode
// spans are offset from).
func (r *Registry) Start() time.Time { return r.start }

// Service returns the instrument set for name, creating it on first use.
// Safe for concurrent use.
func (r *Registry) Service(name string) *ServiceMetrics {
	r.mu.RLock()
	m, ok := r.services[name]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok = r.services[name]; ok {
		return m
	}
	m = &ServiceMetrics{}
	r.services[name] = m
	return m
}

// ServiceNames returns the registered service names, sorted.
func (r *Registry) ServiceNames() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.services))
	for name := range r.services {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// ServiceDigest is one service's live summary — the registry view that
// rides orchestrator heartbeats so the application-aware scheduler reads
// drop ratios and tail latencies without waiting for run end.
type ServiceDigest struct {
	Service   string  `json:"service"`
	Arrived   uint64  `json:"arrived"`
	Processed uint64  `json:"processed"`
	Dropped   uint64  `json:"dropped"`
	Errors    uint64  `json:"errors"`
	DropRatio float64 `json:"drop_ratio"`
	// AdmissionDrops counts admission-control refusals, excluded from
	// Dropped and DropRatio.
	AdmissionDrops uint64 `json:"admission_drops,omitempty"`
	QueueLen       int64  `json:"queue_len"`
	P50Micros      uint64 `json:"p50_us"` // service latency percentiles
	P95Micros      uint64 `json:"p95_us"`
	P99Micros      uint64 `json:"p99_us"`
}

// Digest snapshots every service, sorted by name.
func (r *Registry) Digest() []ServiceDigest {
	names := r.ServiceNames()
	out := make([]ServiceDigest, 0, len(names))
	for _, name := range names {
		m := r.Service(name)
		d := ServiceDigest{
			Service:        name,
			Arrived:        m.Arrived.Value(),
			Processed:      m.Processed.Value(),
			Dropped:        m.Dropped.Value(),
			Errors:         m.Errors.Value(),
			AdmissionDrops: m.AdmissionDrops.Value(),
			QueueLen:       m.QueueLen.Value(),
			P50Micros:      uint64(m.SvcLat.Quantile(0.50) / time.Microsecond),
			P95Micros:      uint64(m.SvcLat.Quantile(0.95) / time.Microsecond),
			P99Micros:      uint64(m.SvcLat.Quantile(0.99) / time.Microsecond),
		}
		if d.Arrived > 0 {
			d.DropRatio = float64(d.Dropped) / float64(d.Arrived)
		}
		out = append(out, d)
	}
	return out
}
