package match

import (
	"math"
	"sort"
)

// Detection is one recognized object in a frame: its reference-image ID,
// estimated pose, and match quality.
type Detection struct {
	ObjectID   int
	Pose       Homography
	Box        BoundingBox
	InlierFrac float64
}

// Track is the tracked state of one object across frames.
type Track struct {
	ObjectID  int
	Pose      Homography
	Box       BoundingBox
	LastFrame uint64 // frame number of the last supporting detection
	Hits      int    // total supporting detections
	Misses    int    // consecutive frames without a detection
	// Confidence is the inlier-fraction-weighted hit streak in [0, 1]:
	// each supporting detection pulls it toward that detection's inlier
	// fraction by ConfidenceGain, and each missed frame multiplies it by
	// MissDecay — so a track is confident only after a streak of
	// well-supported detections, and confidence erodes as soon as the
	// object stops being re-confirmed.
	Confidence float64
}

// TrackerConfig controls track lifetime, smoothing, and confidence.
type TrackerConfig struct {
	// MaxMisses is how many consecutive frames an object may go
	// undetected before its track is dropped (default 15, i.e. 0.5 s at
	// 30 FPS).
	MaxMisses int
	// Smoothing is the exponential moving-average weight given to the new
	// pose in [0, 1]; 1 disables smoothing (default 0.6).
	Smoothing float64
	// ConfidenceGain is the EWMA weight a supporting detection's inlier
	// fraction contributes to the track's confidence (default 0.5): from
	// zero, a track needs several consecutive hits before its confidence
	// approaches the detections' inlier fraction.
	ConfidenceGain float64
	// MissDecay multiplies a track's confidence once per missed frame
	// (default 0.7).
	MissDecay float64
}

// Tracker follows recognized objects across frames, smoothing their poses
// and expiring objects that disappear. It is the "tracking" half of
// scAtteR's matching service. Tracker is not safe for concurrent use; the
// pipeline guarantees one frame in flight per tracker.
type Tracker struct {
	cfg       TrackerConfig
	tracks    map[int]*Track
	lastFrame uint64 // highest frame number ingested so far
}

// NewTracker returns an empty tracker.
func NewTracker(cfg TrackerConfig) *Tracker {
	if cfg.MaxMisses <= 0 {
		cfg.MaxMisses = 15
	}
	if cfg.Smoothing <= 0 || cfg.Smoothing > 1 {
		cfg.Smoothing = 0.6
	}
	if cfg.ConfidenceGain <= 0 || cfg.ConfidenceGain > 1 {
		cfg.ConfidenceGain = 0.5
	}
	if cfg.MissDecay <= 0 || cfg.MissDecay >= 1 {
		cfg.MissDecay = 0.7
	}
	return &Tracker{cfg: cfg, tracks: make(map[int]*Track)}
}

// Update ingests the detections of frame frameNo and returns the current
// set of live tracks, sorted by ObjectID. Objects absent from detections
// accrue misses and are expired once their misses exceed MaxMisses.
//
// Frame numbers must be monotonically increasing: a stale or duplicated
// frame (frameNo at or below the last ingested frame) is ignored — its
// detections would smooth poses backwards in time — and the current
// tracks are returned unchanged. When frames are skipped between updates
// (late arrivals dropped upstream, or the recognition fast path answering
// intermediate frames from this tracker), absent objects accrue one miss
// per skipped frame, not one miss per Update call, so track expiry tracks
// real elapsed frames rather than invocation count.
func (t *Tracker) Update(frameNo uint64, detections []Detection) []Track {
	if t.lastFrame != 0 && frameNo <= t.lastFrame {
		return t.snapshot()
	}
	gap := uint64(1)
	if t.lastFrame != 0 {
		gap = frameNo - t.lastFrame
	}
	t.lastFrame = frameNo
	seen := make(map[int]bool, len(detections))
	for _, d := range detections {
		seen[d.ObjectID] = true
		tr, ok := t.tracks[d.ObjectID]
		if !ok {
			t.tracks[d.ObjectID] = &Track{
				ObjectID:   d.ObjectID,
				Pose:       d.Pose,
				Box:        d.Box,
				LastFrame:  frameNo,
				Hits:       1,
				Confidence: t.cfg.ConfidenceGain * d.InlierFrac,
			}
			continue
		}
		a := t.cfg.Smoothing
		for i := range tr.Pose {
			tr.Pose[i] = (1-a)*tr.Pose[i] + a*d.Pose[i]
		}
		tr.Pose.normalize()
		tr.Box = BoundingBox{
			MinX: (1-a)*tr.Box.MinX + a*d.Box.MinX,
			MinY: (1-a)*tr.Box.MinY + a*d.Box.MinY,
			MaxX: (1-a)*tr.Box.MaxX + a*d.Box.MaxX,
			MaxY: (1-a)*tr.Box.MaxY + a*d.Box.MaxY,
		}
		tr.LastFrame = frameNo
		tr.Hits++
		tr.Misses = 0
		g := t.cfg.ConfidenceGain
		tr.Confidence += g * (d.InlierFrac - tr.Confidence)
	}
	for id, tr := range t.tracks {
		if seen[id] {
			continue
		}
		tr.Misses += int(gap)
		tr.Confidence *= math.Pow(t.cfg.MissDecay, float64(gap))
		if tr.Misses > t.cfg.MaxMisses {
			delete(t.tracks, id)
		}
	}
	return t.snapshot()
}

func (t *Tracker) snapshot() []Track {
	out := make([]Track, 0, len(t.tracks))
	for _, tr := range t.tracks {
		out = append(out, *tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ObjectID < out[j].ObjectID })
	return out
}

// Len returns the number of live tracks.
func (t *Tracker) Len() int { return len(t.tracks) }

// Reset drops all tracks and the frame cursor (used when a client session
// ends).
func (t *Tracker) Reset() {
	t.tracks = make(map[int]*Track)
	t.lastFrame = 0
}
