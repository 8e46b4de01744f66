package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/fisher"
	"github.com/edge-mar/scatter/internal/vision/imgproc"
	"github.com/edge-mar/scatter/internal/vision/lsh"
	"github.com/edge-mar/scatter/internal/vision/match"
	"github.com/edge-mar/scatter/internal/vision/orb"
	"github.com/edge-mar/scatter/internal/vision/pca"
	"github.com/edge-mar/scatter/internal/vision/sift"
	"github.com/edge-mar/scatter/internal/wire"
)

// Processor is one real pipeline service: it transforms a frame's payload
// and advances its step. Processors are used by the real UDP runtime and
// the in-process example pipelines; the experiment testbed models their
// timing instead of executing them.
type Processor interface {
	Step() wire.Step
	Process(fr *wire.Frame) error
}

// BatchHandler is unimplemented: micro-batching was removed and nothing
// in the product may call it. The declaration stays only because
// bench/spans.go names it in a type assertion (always false now) and
// bench/ is frozen outside benchmark PRs; it goes with that file's
// timedBatchProcessor in the next one.
type BatchHandler interface {
	Processor
	ProcessBatch(frs []*wire.Frame) []error
}

// Errors shared by the real processors.
var (
	ErrMissingSection = errors.New("core: payload missing required section")
	ErrStateMiss      = errors.New("core: sift state not found")
)

func checkStep(fr *wire.Frame, step wire.Step) error {
	if fr.Step != step {
		return fmt.Errorf("core: %s received frame at step %s", step, fr.Step)
	}
	return nil
}

func decodeFor(fr *wire.Frame, step wire.Step) (*Payload, error) {
	if err := checkStep(fr, step); err != nil {
		return nil, err
	}
	return DecodePayload(fr.Payload)
}

func advance(fr *wire.Frame, p *Payload) {
	fr.Payload = p.Encode()
	fr.Step = fr.Step.Next()
}

// Primary implements the pre-processing service: grayscaling (the client
// sends 8-bit grayscale already quantized by the capture path) and
// dimension reduction to the analysis resolution.
type Primary struct {
	// TargetW/TargetH is the analysis resolution (defaults 320×180).
	TargetW, TargetH int

	gate *FastPathGate
}

// NewPrimary returns the pre-processing service.
func NewPrimary(targetW, targetH int) *Primary {
	if targetW <= 0 {
		targetW = 320
	}
	if targetH <= 0 {
		targetH = 180
	}
	return &Primary{TargetW: targetW, TargetH: targetH}
}

// Step implements Processor.
func (s *Primary) Step() wire.Step { return wire.StepPrimary }

// SetFastPath installs the tracker-gated recognition fast path: before
// paying for image decode, Process consults the gate and — when the
// client's tracker is confident — rewrites the frame as the terminal
// fast-path detection payload at StepDone, skipping sift→fisher→lsh→match
// entirely. A nil or disabled gate leaves Process bit-identical to a
// build without the gate.
func (s *Primary) SetFastPath(g *FastPathGate) { s.gate = g }

// Process implements Processor.
func (s *Primary) Process(fr *wire.Frame) error {
	if fr.Step == wire.StepPrimary && s.gate.Enabled() {
		// The gate copies the pre-encoded verdict into the frame's own
		// buffer under its lock (append into Payload[:0], reusing pooled
		// capacity), so the frame never aliases gate-owned bytes.
		if out, ok := s.gate.VerdictAppend(fr.ClientID, fr.FrameNo, fr.Payload[:0]); ok {
			fr.Payload = out
			fr.Step = wire.StepDone
			return nil
		}
	}
	if err := checkStep(fr, wire.StepPrimary); err != nil {
		return err
	}
	// The image is only read until the resized copy exists, which is
	// before advance replaces fr.Payload, so its pixels can stay where
	// they arrived.
	p, err := decodePayload(fr.Payload, true)
	if err != nil {
		return err
	}
	if p.Image == nil {
		return fmt.Errorf("%w: image at primary", ErrMissingSection)
	}
	if p.Image.W == 0 || p.Image.H == 0 {
		return fmt.Errorf("%w: empty image at primary", ErrBadPayload)
	}
	if p.Image.W != s.TargetW || p.Image.H != s.TargetH {
		p.Image = resizeImage(p.Image, s.TargetW, s.TargetH)
	} else {
		p.Image = grayToPayload(payloadToGray(p.Image))
	}
	advance(fr, p)
	return nil
}

// resizeImage resamples an 8-bit image to w×h with bilinear interpolation.
// It computes, sample for sample, what
// grayToPayload(imgproc.Resize(payloadToGray(ip), w, h)) does — the same
// float32(v)/255 conversion, the arithmetic of Gray.BilinearAt, the same
// rounding back to 8 bits — but converts only the source pixels the
// samples touch instead of the whole source image.
func resizeImage(ip *ImagePayload, w, h int) *ImagePayload {
	unit := &unitIntensity
	// sample returns, for destination index i along an axis of n source
	// pixels at scale source pixels per destination pixel, the two
	// clamped source indices it interpolates and the second's weight.
	sample := func(i int, scale float64, n int) (i0, i1 int, frac float32) {
		f := (float64(i)+0.5)*scale - 0.5
		i0 = int(math.Floor(f))
		frac = float32(f - float64(i0))
		return min(max(i0, 0), n-1), min(max(i0+1, 0), n-1), frac
	}
	sx := float64(ip.W) / float64(w)
	sy := float64(ip.H) / float64(h)
	x0, x1, wx := make([]int, w), make([]int, w), make([]float32, w)
	for x := range x0 {
		x0[x], x1[x], wx[x] = sample(x, sx, ip.W)
	}
	out := &ImagePayload{W: w, H: h, Pix: make([]uint8, w*h)}
	for y := 0; y < h; y++ {
		y0, y1, wy := sample(y, sy, ip.H)
		top, bot := ip.Pix[y0*ip.W:][:ip.W], ip.Pix[y1*ip.W:][:ip.W]
		row := out.Pix[y*w:][:w]
		for x := range row {
			l, r, fx := x0[x], x1[x], wx[x]
			t := unit[top[l]] + fx*(unit[top[r]]-unit[top[l]])
			b := unit[bot[l]] + fx*(unit[bot[r]]-unit[bot[l]])
			row[x] = quantize8(t + wy*(b-t))
		}
	}
	return out
}

// unitIntensity maps an 8-bit pixel to its [0, 1] intensity,
// float32(v)/255.
var unitIntensity = func() (unit [256]float32) {
	for v := range unit {
		unit[v] = float32(v) / 255
	}
	return unit
}()

func payloadToGray(ip *ImagePayload) *imgproc.Gray {
	g := imgproc.NewGray(ip.W, ip.H)
	for i, v := range ip.Pix {
		g.Pix[i] = unitIntensity[v]
	}
	return g
}

// quantize8 rounds a [0, 1] intensity to 8 bits, clamping what lies
// outside.
func quantize8(v float32) uint8 {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	return uint8(v*255 + 0.5)
}

func grayToPayload(g *imgproc.Gray) *ImagePayload {
	out := &ImagePayload{W: g.W, H: g.H, Pix: make([]uint8, len(g.Pix))}
	for i, v := range g.Pix {
		out.Pix[i] = quantize8(v)
	}
	return out
}

// GrayToPayload converts an image for client submission.
func GrayToPayload(g *imgproc.Gray) *ImagePayload { return grayToPayload(g) }

// Extractor converts a grayscale frame into features. The default is the
// SIFT implementation; NewFastSIFT substitutes the ORB extractor (the
// "faster model" option the paper's §5 discusses).
type Extractor func(img *imgproc.Gray) *Features

// SIFT implements the object-detection service. In stateful (scAtteR)
// mode it retains each frame's features in memory until matching fetches
// them or they time out; in stateless (scAtteR++) mode the features ride
// in the frame payload.
type SIFT struct {
	extract   Extractor
	stateless bool

	mu     sync.Mutex
	states map[stateKey]*siftState
	// StateTimeout bounds state retention (default 1s).
	StateTimeout time.Duration
	// now allows tests to control time; defaults to time.Now.
	now func() time.Time
}

type siftState struct {
	features *Features
	expires  time.Time
}

// NewSIFT returns the detection service with the SIFT extractor.
// maxFeatures caps per-frame features (0 = no cap); stateless selects
// scAtteR++ behaviour.
func NewSIFT(maxFeatures int, stateless bool) *SIFT {
	cfg := sift.Defaults()
	cfg.MaxFeatures = maxFeatures
	det := sift.New(cfg)
	return NewDetectService(func(img *imgproc.Gray) *Features {
		feats := det.Detect(img)
		f := &Features{
			Keypoints:   make([]FeatureKeypoint, len(feats)),
			Descriptors: make([]sift.Descriptor, len(feats)),
		}
		for i, ft := range feats {
			f.Keypoints[i] = FeatureKeypoint{
				X: float32(ft.X), Y: float32(ft.Y),
				Sigma: float32(ft.Sigma), Orientation: float32(ft.Orientation),
			}
			f.Descriptors[i] = ft.Desc
		}
		return f
	}, stateless)
}

// NewFastSIFT returns the detection service with the ORB extractor —
// several times faster than SIFT at the cost of binary (embedded)
// descriptors. 256-bit BRIEF descriptors are folded into the 128-d
// descriptor space by summing ±1 bit pairs, preserving the Hamming
// metric up to quantization so the downstream PCA/Fisher/LSH/matching
// stages work unchanged.
func NewFastSIFT(maxFeatures int, stateless bool) *SIFT {
	det := orb.New(orb.Config{MaxFeatures: maxFeatures})
	return NewDetectService(func(img *imgproc.Gray) *Features {
		feats := det.Detect(img)
		f := &Features{
			Keypoints:   make([]FeatureKeypoint, len(feats)),
			Descriptors: make([]sift.Descriptor, len(feats)),
		}
		for i := range feats {
			ft := &feats[i]
			f.Keypoints[i] = FeatureKeypoint{
				X: float32(ft.X), Y: float32(ft.Y),
				Sigma: 1, Orientation: float32(ft.Orientation),
			}
			f.Descriptors[i] = foldORB(&ft.Desc)
		}
		return f
	}, stateless)
}

// foldORB folds a 256-bit ORB descriptor into the 128-d float descriptor
// space: component k sums bits 2k and 2k+1 as ±1 and the vector is
// L2-normalized.
func foldORB(d *orb.Descriptor) sift.Descriptor {
	var out sift.Descriptor
	var norm float64
	for k := 0; k < sift.DescriptorSize; k++ {
		v := float32(0)
		for _, bit := range [2]int{2 * k, 2*k + 1} {
			if d[bit/64]&(1<<uint(bit%64)) != 0 {
				v++
			} else {
				v--
			}
		}
		out[k] = v
		norm += float64(v) * float64(v)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for k := range out {
			out[k] *= inv
		}
	}
	return out
}

// NewDetectService wraps an arbitrary extractor with the detection
// service's state semantics.
func NewDetectService(extract Extractor, stateless bool) *SIFT {
	if extract == nil {
		panic("core: nil extractor")
	}
	return &SIFT{
		extract:      extract,
		stateless:    stateless,
		states:       make(map[stateKey]*siftState),
		StateTimeout: time.Second,
		now:          time.Now,
	}
}

// Step implements Processor.
func (s *SIFT) Step() wire.Step { return wire.StepSIFT }

// Stateless reports the configured mode.
func (s *SIFT) Stateless() bool { return s.stateless }

// StateCount returns the number of retained frame states.
func (s *SIFT) StateCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.states)
}

// Process implements Processor.
func (s *SIFT) Process(fr *wire.Frame) error {
	if err := checkStep(fr, wire.StepSIFT); err != nil {
		return err
	}
	// As at primary, the pixels are read (into the float image) before
	// advance replaces fr.Payload, so the decode borrows them.
	p, err := decodePayload(fr.Payload, true)
	if err != nil {
		return err
	}
	if p.Image == nil {
		return fmt.Errorf("%w: image at sift", ErrMissingSection)
	}
	img := payloadToGray(p.Image)
	f := s.extract(img)
	p.Image = nil
	p.Features = f
	if !s.stateless {
		// Retain state for matching; strip it from the forwarded frame so
		// downstream stages carry only what they need.
		s.mu.Lock()
		s.expireLocked()
		s.states[stateKey{client: fr.ClientID, frame: fr.FrameNo}] = &siftState{
			features: f,
			expires:  s.now().Add(s.StateTimeout),
		}
		s.mu.Unlock()
	}
	fr.Stateless = s.stateless
	advance(fr, p)
	if !s.stateless {
		// Downstream carries only descriptors for encoding; keypoints are
		// fetched back by matching. (Descriptors are needed by encoding.)
		return nil
	}
	return nil
}

func (s *SIFT) expireLocked() {
	now := s.now()
	for k, st := range s.states {
		if now.After(st.expires) {
			delete(s.states, k)
		}
	}
}

// Fetch returns and removes the retained features for a frame — the
// request matching issues in the stateful pipeline.
func (s *SIFT) Fetch(clientID uint32, frameNo uint64) (*Features, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	key := stateKey{client: clientID, frame: frameNo}
	st, ok := s.states[key]
	if !ok {
		return nil, fmt.Errorf("%w: client %d frame %d", ErrStateMiss, clientID, frameNo)
	}
	delete(s.states, key)
	return st.features, nil
}

// Encoding implements the PCA + Fisher encoding service.
type Encoding struct {
	proj *pca.Projection
	enc  *fisher.Encoder
}

// NewEncoding returns the encoding service over a trained model.
func NewEncoding(proj *pca.Projection, enc *fisher.Encoder) *Encoding {
	if proj == nil || enc == nil {
		panic("core: NewEncoding with nil model")
	}
	return &Encoding{proj: proj, enc: enc}
}

// Step implements Processor.
func (s *Encoding) Step() wire.Step { return wire.StepEncoding }

// Process implements Processor.
func (s *Encoding) Process(fr *wire.Frame) error {
	p, err := decodeFor(fr, wire.StepEncoding)
	if err != nil {
		return err
	}
	if p.Features == nil {
		return fmt.Errorf("%w: features at encoding", ErrMissingSection)
	}
	p.Fisher = s.encodeFeatures(p.Features)
	if !fr.Stateless {
		// Stateful pipeline: only the Fisher vector travels on.
		p.Features = nil
	}
	advance(fr, p)
	return nil
}

func (s *Encoding) encodeFeatures(f *Features) []float32 {
	// One buffer for every reduced descriptor; reduced[i] is a window
	// into it.
	k := s.proj.K
	flat := make([]float32, k*len(f.Descriptors))
	reduced := make([][]float32, len(f.Descriptors))
	for i := range f.Descriptors {
		reduced[i] = flat[i*k : (i+1)*k : (i+1)*k]
		s.proj.ProjectInto(reduced[i], f.Descriptors[i][:])
	}
	return s.enc.Encode(reduced)
}

// LSHService implements nearest-neighbour lookup over reference images.
type LSHService struct {
	index NNIndex
	// K is how many candidates to forward (default 3).
	K int
	// Cache, when non-nil, short-circuits index queries through the
	// cross-client recognition cache: the Fisher vector's LSH sketch is
	// computed (a fraction of a full multi-probe query + exact ranking),
	// and a fresh-enough entry from any client viewing the same scene is
	// reused. Nil leaves Process bit-identical to a build without it.
	Cache *RecognitionCache
}

// NewLSHService wraps a populated index backend — a monolithic
// *lsh.Index, an in-process *lsh.ShardedIndex, or a remote shard-gather
// client.
func NewLSHService(index NNIndex, k int) *LSHService {
	if index == nil {
		panic("core: NewLSHService with nil index")
	}
	if k <= 0 {
		k = 3
	}
	return &LSHService{index: index, K: k}
}

// Step implements Processor.
func (s *LSHService) Step() wire.Step { return wire.StepLSH }

// Process implements Processor.
func (s *LSHService) Process(fr *wire.Frame) error {
	p, err := decodeFor(fr, wire.StepLSH)
	if err != nil {
		return err
	}
	if p.Fisher == nil {
		return fmt.Errorf("%w: fisher vector at lsh", ErrMissingSection)
	}
	var sketch string
	if s.Cache != nil {
		sketch = s.Cache.Sketch(p.Fisher)
		if cached, ok := s.Cache.Lookup(sketch); ok {
			p.Candidates = cached
			p.Fisher = nil
			advance(fr, p)
			return nil
		}
	}
	neighbors := s.index.Query(p.Fisher, s.K)
	if len(neighbors) < s.K && s.index.Len() >= s.K {
		// Small reference sets can miss probe buckets; top up with the
		// exact scan so recognition never silently goes blind.
		neighbors = s.index.ExactNN(p.Fisher, s.K)
	}
	p.Candidates = make([]Candidate, len(neighbors))
	for i, n := range neighbors {
		p.Candidates[i] = Candidate{ObjectID: int32(n.ID), Dist: float32(n.Dist)}
	}
	if s.Cache != nil {
		s.Cache.Store(sketch, p.Candidates)
	}
	p.Fisher = nil
	advance(fr, p)
	return nil
}

// ReferenceObject is one trained object: its features in reference-image
// coordinates and the reference dimensions for box projection.
type ReferenceObject struct {
	ID       int32
	Name     string
	Features []sift.Feature
	W, H     float64
}

// StateFetcher retrieves sift state for a frame (the matching→sift
// dependency of the stateful pipeline). Implementations: direct call
// (in-process), RPC (real deployment).
type StateFetcher func(clientID uint32, frameNo uint64) (*Features, error)

// Matching implements feature matching, pose estimation, and cross-frame
// tracking.
type Matching struct {
	refs    map[int32]*ReferenceObject
	fetch   StateFetcher
	ratio   float64
	ransac  match.RANSACConfig
	minHits int
	gate    *FastPathGate

	mu          sync.Mutex
	trackers    map[uint32]*clientTracker
	idleTimeout time.Duration
	nextSweep   time.Time
	now         func() time.Time
}

// clientTracker pairs a per-client tracker with its last activity time,
// so trackers for churned clients can be evicted.
type clientTracker struct {
	tr       *match.Tracker
	lastSeen time.Time
}

// NewMatching returns the matching service. fetch may be nil when the
// pipeline runs stateless (features arrive in the payload).
func NewMatching(refs []*ReferenceObject, fetch StateFetcher) *Matching {
	m := &Matching{
		refs:        make(map[int32]*ReferenceObject, len(refs)),
		fetch:       fetch,
		ratio:       0.85,
		ransac:      match.RANSACConfig{Iterations: 400, Threshold: 5, MinInliers: 5, Seed: 1},
		minHits:     1,
		trackers:    make(map[uint32]*clientTracker),
		idleTimeout: time.Minute,
		now:         time.Now,
	}
	for _, r := range refs {
		m.refs[r.ID] = r
	}
	return m
}

// Step implements Processor.
func (s *Matching) Step() wire.Step { return wire.StepMatching }

// SetMinHits requires a track to accumulate n supporting detections
// before its detection is emitted to the client, suppressing single-frame
// flicker from spurious matches. The default 1 emits on the first hit
// (the historical behaviour).
func (s *Matching) SetMinHits(n int) {
	if n < 1 {
		n = 1
	}
	s.minHits = n
}

// SetTrackerIdleTimeout sets how long a client's tracker survives without
// frames before being evicted (default 1 minute). Non-positive values
// keep the default.
func (s *Matching) SetTrackerIdleTimeout(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.idleTimeout = d
	s.nextSweep = time.Time{}
	s.mu.Unlock()
}

// SetFastPath installs the gate that Matching publishes its per-client
// verdict into after every full recognition pass.
func (s *Matching) SetFastPath(g *FastPathGate) { s.gate = g }

// EndSession drops the tracker and fast-path verdict for a client whose
// session ended, so its next stream starts from a clean tracking state
// instead of stale tracks (and so churning clients don't leak trackers).
func (s *Matching) EndSession(clientID uint32) {
	s.mu.Lock()
	if ct, ok := s.trackers[clientID]; ok {
		ct.tr.Reset()
		delete(s.trackers, clientID)
	}
	s.mu.Unlock()
	s.gate.EndSession(clientID)
}

// TrackerCount returns the number of live per-client trackers.
func (s *Matching) TrackerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.trackers)
}

// Process implements Processor.
func (s *Matching) Process(fr *wire.Frame) error {
	p, err := decodeFor(fr, wire.StepMatching)
	if err != nil {
		return err
	}
	feats := p.Features
	if feats == nil {
		if s.fetch == nil {
			return fmt.Errorf("%w: features at matching (stateless) or fetcher (stateful)", ErrMissingSection)
		}
		feats, err = s.fetch(fr.ClientID, fr.FrameNo)
		if err != nil {
			return err
		}
	}
	sc := matchScratchPool.Get().(*matchScratch)
	query := sc.featuresToSIFT(feats)
	var detections []match.Detection
	for _, cand := range p.Candidates {
		ref, ok := s.refs[cand.ObjectID]
		if !ok {
			continue
		}
		det, ok := s.matchObject(sc, query, ref)
		if ok {
			detections = append(detections, det)
		}
	}
	matchScratchPool.Put(sc)
	s.track(fr, detections)
	return nil
}

// track folds detections into the per-client tracker and rewrites the
// frame as the terminal detection payload. It also evicts trackers for
// idle clients (throttled to every idleTimeout/4) and publishes the
// client's verdict into the fast-path gate.
func (s *Matching) track(fr *wire.Frame, detections []match.Detection) {
	s.mu.Lock()
	now := s.now()
	s.sweepTrackersLocked(now)
	ct, ok := s.trackers[fr.ClientID]
	if !ok {
		ct = &clientTracker{tr: match.NewTracker(match.TrackerConfig{})}
		s.trackers[fr.ClientID] = ct
	}
	ct.lastSeen = now
	tracks := ct.tr.Update(fr.FrameNo, detections)
	s.mu.Unlock()

	// The published verdict confidence is the mean over emitted tracks: a
	// single intermittently-visible object should not starve the fast path
	// for a client whose stable tracks are well-confirmed (its smoothed
	// box coasts in the verdict either way).
	var conf float64
	out := make([]Detection, 0, len(tracks))
	for _, t := range tracks {
		if t.Hits < s.minHits {
			continue
		}
		conf += t.Confidence
		out = append(out, Detection{
			ObjectID: int32(t.ObjectID),
			MinX:     float32(t.Box.MinX), MinY: float32(t.Box.MinY),
			MaxX: float32(t.Box.MaxX), MaxY: float32(t.Box.MaxY),
		})
	}
	if len(out) > 0 {
		conf /= float64(len(out))
	}
	s.gate.Publish(fr.ClientID, fr.FrameNo, conf, out)
	fr.Payload = (&Payload{Detections: out}).Encode()
	fr.Step = wire.StepDone
}

func (s *Matching) sweepTrackersLocked(now time.Time) {
	if now.Before(s.nextSweep) {
		return
	}
	s.nextSweep = now.Add(s.idleTimeout / 4)
	for id, ct := range s.trackers {
		if now.Sub(ct.lastSeen) > s.idleTimeout {
			delete(s.trackers, id)
		}
	}
}

// matchScratch is what one Matching.Process call needs and nothing
// outlives: the frame's features in the matcher's form and the matched
// point pairs handed to RANSAC.
type matchScratch struct {
	query    []sift.Feature
	src, dst []match.Point
}

var matchScratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

func (s *Matching) matchObject(sc *matchScratch, query []sift.Feature, ref *ReferenceObject) (match.Detection, bool) {
	matches := match.RatioTest(query, ref.Features, s.ratio)
	if len(matches) < s.ransac.MinInliers {
		return match.Detection{}, false
	}
	src, dst := sc.src[:0], sc.dst[:0]
	for _, m := range matches {
		rf := &ref.Features[m.TrainIdx]
		qf := &query[m.QueryIdx]
		src = append(src, match.Point{X: rf.X, Y: rf.Y})
		dst = append(dst, match.Point{X: qf.X, Y: qf.Y})
	}
	sc.src, sc.dst = src, dst
	res, err := match.EstimateHomographyRANSAC(src, dst, s.ransac)
	if err != nil {
		return match.Detection{}, false
	}
	return match.Detection{
		ObjectID:   int(ref.ID),
		Pose:       res.H,
		Box:        match.ProjectBox(&res.H, ref.W, ref.H),
		InlierFrac: res.InlierFrac,
	}, true
}

// featuresToSIFT converts the wire features into the scratch's query
// slice, valid until the scratch goes back to the pool.
func (sc *matchScratch) featuresToSIFT(f *Features) []sift.Feature {
	if cap(sc.query) < len(f.Keypoints) {
		sc.query = make([]sift.Feature, len(f.Keypoints))
	}
	out := sc.query[:len(f.Keypoints)]
	for i, kp := range f.Keypoints {
		out[i].Keypoint = sift.Keypoint{
			X: float64(kp.X), Y: float64(kp.Y),
			Sigma: float64(kp.Sigma), Orientation: float64(kp.Orientation),
		}
		out[i].Desc = f.Descriptors[i]
	}
	return out
}

// Model bundles everything the recognition pipeline learns from the
// reference dataset: the PCA projection, the Fisher encoder, the LSH
// index over reference Fisher vectors, and per-object reference features.
type Model struct {
	PCA     *pca.Projection
	Encoder *fisher.Encoder
	Index   *lsh.Index
	Objects []*ReferenceObject
}

// TrainConfig controls model building.
type TrainConfig struct {
	PCADim      int   // descriptor dimensionality after PCA (default 24)
	GMMK        int   // Fisher mixture components (default 8)
	GMMIters    int   // EM iterations (default 15)
	MaxFeatures int   // per-image feature cap (default 150)
	Seed        int64 // default 1
	// FastExtractor trains with the ORB extractor instead of SIFT; the
	// resulting model must be served by NewFastSIFT-based pipelines.
	FastExtractor bool
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.PCADim <= 0 {
		c.PCADim = 24
	}
	if c.GMMK <= 0 {
		c.GMMK = 8
	}
	if c.GMMIters <= 0 {
		c.GMMIters = 15
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = 150
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Train builds a Model from reference images (the training dataset the
// paper's pipeline recognizes against).
func Train(refs []trace.ReferenceImage, cfg TrainConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(refs) == 0 {
		return nil, errors.New("core: no reference images")
	}
	var detect func(img *imgproc.Gray) []sift.Feature
	if cfg.FastExtractor {
		det := orb.New(orb.Config{MaxFeatures: cfg.MaxFeatures, Seed: cfg.Seed})
		detect = func(img *imgproc.Gray) []sift.Feature {
			raw := det.Detect(img)
			out := make([]sift.Feature, len(raw))
			for i := range raw {
				out[i] = sift.Feature{
					Keypoint: sift.Keypoint{
						X: raw[i].X, Y: raw[i].Y,
						Sigma: 1, Orientation: raw[i].Orientation,
						Response: raw[i].Score,
					},
					Desc: foldORB(&raw[i].Desc),
				}
			}
			return out
		}
	} else {
		detCfg := sift.Defaults()
		detCfg.MaxFeatures = cfg.MaxFeatures
		det := sift.New(detCfg)
		detect = det.Detect
	}

	var allDescs [][]float32
	objects := make([]*ReferenceObject, 0, len(refs))
	for _, ref := range refs {
		feats := detect(ref.Img)
		if len(feats) == 0 {
			return nil, fmt.Errorf("core: reference image %q yields no features", ref.Name)
		}
		objects = append(objects, &ReferenceObject{
			ID:       int32(ref.ObjectID),
			Name:     ref.Name,
			Features: feats,
			W:        float64(ref.Img.W),
			H:        float64(ref.Img.H),
		})
		for i := range feats {
			allDescs = append(allDescs, feats[i].Desc[:])
		}
	}
	proj, err := pca.Fit(allDescs, cfg.PCADim)
	if err != nil {
		return nil, fmt.Errorf("core: train PCA: %w", err)
	}
	reduced := proj.ProjectAll(allDescs)
	gmm, err := fisher.TrainGMM(reduced, cfg.GMMK, cfg.GMMIters, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: train GMM: %w", err)
	}
	enc := fisher.NewEncoder(gmm)
	index := lsh.New(lsh.Config{Dim: enc.Size(), Tables: 8, Bits: 6, Probes: 2, Seed: cfg.Seed})
	// Index each object's reference Fisher vector.
	for _, obj := range objects {
		descs := make([][]float32, len(obj.Features))
		for i := range obj.Features {
			descs[i] = proj.Project(obj.Features[i].Desc[:])
		}
		index.Add(int(obj.ID), enc.Encode(descs))
	}
	return &Model{PCA: proj, Encoder: enc, Index: index, Objects: objects}, nil
}

// NewProcessors builds the five real services over a trained model.
// stateless selects scAtteR++ semantics; in stateful mode the returned
// Matching fetches directly from the returned SIFT instance (in-process
// wiring; the distributed runtime substitutes an RPC fetcher).
func NewProcessors(m *Model, stateless bool, analysisW, analysisH int) [wire.NumSteps]Processor {
	return newProcessors(m, stateless, analysisW, analysisH, false)
}

// NewFastProcessors is NewProcessors with the ORB extractor at the
// detection stage — use with a Model trained with FastExtractor.
func NewFastProcessors(m *Model, stateless bool, analysisW, analysisH int) [wire.NumSteps]Processor {
	return newProcessors(m, stateless, analysisW, analysisH, true)
}

func newProcessors(m *Model, stateless bool, analysisW, analysisH int, fast bool) [wire.NumSteps]Processor {
	var s *SIFT
	if fast {
		s = NewFastSIFT(150, stateless)
	} else {
		s = NewSIFT(150, stateless)
	}
	var fetch StateFetcher
	if !stateless {
		fetch = s.Fetch
	}
	return [wire.NumSteps]Processor{
		wire.StepPrimary:  NewPrimary(analysisW, analysisH),
		wire.StepSIFT:     s,
		wire.StepEncoding: NewEncoding(m.PCA, m.Encoder),
		wire.StepLSH:      NewLSHService(m.Index, 3),
		wire.StepMatching: NewMatching(m.Objects, fetch),
	}
}
