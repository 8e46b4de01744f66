package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// FastPathConfig controls the tracker-gated recognition fast path.
//
// The fast path exploits the temporal coherence of AR streams: once the
// matching stage's per-client tracker is confident, consecutive frames
// are ~97% redundant and their detections can be answered from the
// smoothed tracks without running sift→fisher→lsh→match at all. The gate
// sits at the head of the pipeline (the primary service): matching
// publishes its verdict after each full recognition, and primary consults
// it before paying for image decode. Full recognition still runs on track
// loss, on confidence decay, and on an every-RefreshEvery-th frame
// refresh that bounds pose drift and lets the tracker re-confirm its
// tracks.
type FastPathConfig struct {
	// Enabled turns the gate on. Disabled (the zero value), the pipeline
	// is bit-identical to a build without the gate.
	Enabled bool
	// MinConfidence is the tracker confidence below which frames always
	// run full recognition (default 0.5).
	MinConfidence float64
	// RefreshEvery forces a full recognition at least every N-th frame
	// per client, bounding drift; N-1 consecutive frames may be skipped
	// (default 30, ≈1 s at 30 FPS → 96.7% steady-state skip rate).
	RefreshEvery int
	// SkipDecay multiplies the published confidence once per skipped
	// frame, so a long skip run falls below MinConfidence even without a
	// refresh (default 0.98).
	SkipDecay float64
	// IdleTimeout evicts gate entries for clients that have not sent a
	// frame recently (default 60s).
	IdleTimeout time.Duration
}

func (c FastPathConfig) withDefaults() FastPathConfig {
	if c.MinConfidence <= 0 {
		c.MinConfidence = 0.5
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 30
	}
	if c.SkipDecay <= 0 || c.SkipDecay > 1 {
		c.SkipDecay = 0.98
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	return c
}

// gateEntry is the per-client verdict published by matching.
type gateEntry struct {
	payload    []byte // pre-encoded fast-path Payload (Detections + FastPath bit)
	confidence float64
	lastFull   uint64 // frame number of the last full recognition
	skips      int    // consecutive frames answered from this verdict
	lastSeen   time.Time
}

// FastPathGate is the shared in-process verdict table between the
// matching stage (writer, via Publish) and the primary stage (reader, via
// VerdictAppend). In the distributed runtime it is node-local: when
// primary and matching are co-located it short-circuits; when they are
// not, Publish is never called and the gate never skips — which is safe,
// just not fast. All methods are safe for concurrent use.
type FastPathGate struct {
	cfg FastPathConfig
	now func() time.Time

	mu        sync.Mutex
	clients   map[uint32]*gateEntry
	nextSweep time.Time

	skips atomic.Uint64
	fulls atomic.Uint64
}

// NewFastPathGate returns a gate with cfg (defaults applied).
func NewFastPathGate(cfg FastPathConfig) *FastPathGate {
	return &FastPathGate{
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		clients: make(map[uint32]*gateEntry),
	}
}

// Enabled reports whether the gate may skip frames.
func (g *FastPathGate) Enabled() bool { return g != nil && g.cfg.Enabled }

// VerdictAppend decides whether frame frameNo of clientID can be answered
// from the last published verdict. On a skip it appends the pre-encoded
// fast-path payload to dst (which may be a pooled frame's Payload[:0] —
// the bytes are copied under the gate lock, never aliased, so the caller
// owns the result) and returns (dst, true). Otherwise dst is returned
// unchanged with false and the frame must run full recognition.
func (g *FastPathGate) VerdictAppend(clientID uint32, frameNo uint64, dst []byte) ([]byte, bool) {
	if !g.Enabled() {
		return dst, false
	}
	g.mu.Lock()
	now := g.now()
	g.sweepLocked(now)
	e, ok := g.clients[clientID]
	if !ok {
		g.mu.Unlock()
		g.fulls.Add(1)
		return dst, false
	}
	e.lastSeen = now
	// Stale or replayed frame numbers never skip: the verdict was
	// published for a newer frame.
	if frameNo <= e.lastFull ||
		e.skips+1 >= g.cfg.RefreshEvery ||
		e.confidence < g.cfg.MinConfidence {
		g.mu.Unlock()
		g.fulls.Add(1)
		return dst, false
	}
	e.skips++
	e.confidence *= g.cfg.SkipDecay
	dst = append(dst, e.payload...)
	g.mu.Unlock()
	g.skips.Add(1)
	return dst, true
}

// Publish records the outcome of a full recognition pass for clientID:
// the tracker confidence and the smoothed detections, pre-encoded so
// skipped frames pay only a copy. Out-of-order publishes (frameNo at or
// below the last published full frame) are ignored.
func (g *FastPathGate) Publish(clientID uint32, frameNo uint64, confidence float64, dets []Detection) {
	if !g.Enabled() {
		return
	}
	p := Payload{Detections: dets, FastPath: true}
	if dets == nil {
		p.Detections = []Detection{}
	}
	enc := p.Encode()
	g.mu.Lock()
	e, ok := g.clients[clientID]
	if !ok {
		e = &gateEntry{}
		g.clients[clientID] = e
	} else if frameNo <= e.lastFull {
		g.mu.Unlock()
		return
	}
	e.payload = enc
	e.confidence = confidence
	e.lastFull = frameNo
	e.skips = 0
	e.lastSeen = g.now()
	g.mu.Unlock()
}

// ClientCount returns the number of clients with a live verdict.
func (g *FastPathGate) ClientCount() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.clients)
}

// Skips returns the total frames answered from the gate.
func (g *FastPathGate) Skips() uint64 {
	if g == nil {
		return 0
	}
	return g.skips.Load()
}

// Fulls returns the total frames the gate declined (full recognition).
func (g *FastPathGate) Fulls() uint64 {
	if g == nil {
		return 0
	}
	return g.fulls.Load()
}

// sweepLocked evicts idle clients, throttled to every IdleTimeout/4.
func (g *FastPathGate) sweepLocked(now time.Time) {
	if now.Before(g.nextSweep) {
		return
	}
	g.nextSweep = now.Add(g.cfg.IdleTimeout / 4)
	for id, e := range g.clients {
		if now.Sub(e.lastSeen) > g.cfg.IdleTimeout {
			delete(g.clients, id)
		}
	}
}
