package match

import (
	"math"
	"testing"
)

func det(id int, x float64) Detection {
	return Detection{
		ObjectID:   id,
		Pose:       Homography{1, 0, x, 0, 1, 0, 0, 0, 1},
		Box:        BoundingBox{MinX: x, MinY: 0, MaxX: x + 10, MaxY: 10},
		InlierFrac: 0.9,
	}
}

func TestTrackerCreatesAndUpdates(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	tracks := tr.Update(1, []Detection{det(5, 0)})
	if len(tracks) != 1 || tracks[0].ObjectID != 5 || tracks[0].Hits != 1 {
		t.Fatalf("tracks after first frame = %+v", tracks)
	}
	tracks = tr.Update(2, []Detection{det(5, 10)})
	if tracks[0].Hits != 2 {
		t.Errorf("hits = %d, want 2", tracks[0].Hits)
	}
	// Smoothed position should lie strictly between 0 and 10.
	if x := tracks[0].Box.MinX; x <= 0 || x >= 10 {
		t.Errorf("smoothed MinX = %v, want in (0, 10)", x)
	}
}

func TestTrackerSmoothingWeight(t *testing.T) {
	tr := NewTracker(TrackerConfig{Smoothing: 1}) // no smoothing
	tr.Update(1, []Detection{det(1, 0)})
	tracks := tr.Update(2, []Detection{det(1, 10)})
	if tracks[0].Box.MinX != 10 {
		t.Errorf("smoothing=1 MinX = %v, want 10", tracks[0].Box.MinX)
	}
}

func TestTrackerExpires(t *testing.T) {
	tr := NewTracker(TrackerConfig{MaxMisses: 2})
	tr.Update(1, []Detection{det(1, 0)})
	tr.Update(2, nil) // miss 1
	tr.Update(3, nil) // miss 2
	if tr.Len() != 1 {
		t.Fatalf("track expired too early: len = %d", tr.Len())
	}
	tr.Update(4, nil) // miss 3 > MaxMisses
	if tr.Len() != 0 {
		t.Errorf("track not expired: len = %d", tr.Len())
	}
}

func TestTrackerMissResetOnRedetection(t *testing.T) {
	tr := NewTracker(TrackerConfig{MaxMisses: 2})
	tr.Update(1, []Detection{det(1, 0)})
	tr.Update(2, nil)
	tr.Update(3, []Detection{det(1, 1)}) // re-detected: misses reset
	tr.Update(4, nil)
	tr.Update(5, nil)
	if tr.Len() != 1 {
		t.Error("track expired despite re-detection resetting misses")
	}
}

func TestTrackerMultipleObjectsSorted(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	tracks := tr.Update(1, []Detection{det(9, 0), det(2, 5), det(4, 1)})
	if len(tracks) != 3 {
		t.Fatalf("len = %d, want 3", len(tracks))
	}
	for i, want := range []int{2, 4, 9} {
		if tracks[i].ObjectID != want {
			t.Errorf("tracks[%d].ObjectID = %d, want %d", i, tracks[i].ObjectID, want)
		}
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	tr.Update(1, []Detection{det(1, 0), det(2, 0)})
	tr.Reset()
	if tr.Len() != 0 {
		t.Errorf("len after Reset = %d", tr.Len())
	}
}

func TestTrackerLastFrame(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	tr.Update(7, []Detection{det(1, 0)})
	tracks := tr.Update(9, []Detection{det(1, 0)})
	if tracks[0].LastFrame != 9 {
		t.Errorf("LastFrame = %d, want 9", tracks[0].LastFrame)
	}
}

func TestTrackerIgnoresStaleFrames(t *testing.T) {
	tr := NewTracker(TrackerConfig{Smoothing: 1})
	tr.Update(5, []Detection{det(1, 10)})
	// A late-arriving older frame must not regress state or smooth the
	// pose backwards.
	tracks := tr.Update(3, []Detection{det(1, 0)})
	if tracks[0].Box.MinX != 10 {
		t.Errorf("stale frame smoothed pose: MinX = %v, want 10", tracks[0].Box.MinX)
	}
	if tracks[0].Hits != 1 {
		t.Errorf("stale frame counted as hit: Hits = %d, want 1", tracks[0].Hits)
	}
	if tr.LastFrame() != 5 {
		t.Errorf("LastFrame regressed to %d, want 5", tr.LastFrame())
	}
	// A duplicate of the current frame is equally ignored.
	tracks = tr.Update(5, []Detection{det(1, 0)})
	if tracks[0].Hits != 1 || tracks[0].Box.MinX != 10 {
		t.Errorf("duplicate frame mutated track: %+v", tracks[0])
	}
}

func TestTrackerGapAccruesMisses(t *testing.T) {
	tr := NewTracker(TrackerConfig{MaxMisses: 5})
	tr.Update(1, []Detection{det(1, 0)})
	// One update 10 frames later must count 10 missed frames, not 1 call.
	tr.Update(11, nil)
	if tr.Len() != 0 {
		t.Errorf("track survived a 10-frame gap with MaxMisses=5: len = %d", tr.Len())
	}

	tr = NewTracker(TrackerConfig{MaxMisses: 5})
	tr.Update(1, []Detection{det(1, 0)})
	tracks := tr.Update(4, nil) // gap of 3 frames
	if len(tracks) != 1 || tracks[0].Misses != 3 {
		t.Fatalf("misses after 3-frame gap = %+v, want Misses=3", tracks)
	}
}

func TestTrackerGapThenHitSurvives(t *testing.T) {
	// A gap caused by fast-path-skipped frames must not kill a track that
	// is re-confirmed on the refresh frame: the hit resets misses.
	tr := NewTracker(TrackerConfig{MaxMisses: 5})
	tr.Update(1, []Detection{det(1, 0)})
	tr.Update(4, []Detection{det(1, 1)})
	tracks := tr.Update(7, []Detection{det(1, 2)})
	if len(tracks) != 1 || tracks[0].Misses != 0 || tracks[0].Hits != 3 {
		t.Errorf("tracks after gapped hits = %+v", tracks)
	}
}

func TestTrackerConfidenceBuildsAndDecays(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	if tr.Confidence() != 0 {
		t.Errorf("empty tracker confidence = %v, want 0", tr.Confidence())
	}
	var prev float64
	for f := uint64(1); f <= 6; f++ {
		tr.Update(f, []Detection{det(1, 0)})
		c := tr.Confidence()
		if c <= prev {
			t.Fatalf("confidence not increasing under hit streak: frame %d %v <= %v", f, c, prev)
		}
		prev = c
	}
	// Six straight hits at InlierFrac 0.9 with gain 0.5 ≈ 0.886.
	if prev < 0.8 {
		t.Errorf("confidence after 6 hits = %v, want > 0.8", prev)
	}
	tr.Update(7, nil)
	c := tr.Confidence()
	if c >= prev {
		t.Errorf("confidence did not decay on miss: %v >= %v", c, prev)
	}
	// Decay must be applied once per missed frame, not per call: a
	// 3-frame gap decays by MissDecay^3.
	tr.Update(10, nil)
	want := c * 0.7 * 0.7 * 0.7
	if got := tr.Confidence(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("confidence after 3-frame gap = %v, want %v", got, want)
	}
}

func TestTrackerConfidenceIsMinAcrossTracks(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	for f := uint64(1); f <= 6; f++ {
		tr.Update(f, []Detection{det(1, 0)})
	}
	strong := tr.Confidence()
	// A newly-appeared object pulls the aggregate down to its own (low)
	// confidence even while object 1 stays stable.
	tr.Update(7, []Detection{det(1, 0), det(2, 5)})
	if c := tr.Confidence(); c >= strong {
		t.Errorf("aggregate confidence %v not dragged down by new track (strong=%v)", c, strong)
	}
}

func TestTrackerResetClearsFrameCursor(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	tr.Update(100, []Detection{det(1, 0)})
	tr.Reset()
	// After a session reset, earlier frame numbers must be accepted again.
	tracks := tr.Update(1, []Detection{det(1, 0)})
	if len(tracks) != 1 {
		t.Errorf("update after Reset ignored: tracks = %+v", tracks)
	}
	if tr.LastFrame() != 1 {
		t.Errorf("LastFrame after Reset+Update = %d, want 1", tr.LastFrame())
	}
}

// Confidence returns the tracker's aggregate confidence: the minimum
// confidence across live tracks, or 0 with no tracks. Taking the minimum
// means a single newly-appeared or poorly-supported object keeps full
// recognition running even while other objects are stably tracked.
func (t *Tracker) Confidence() float64 {
	if len(t.tracks) == 0 {
		return 0
	}
	min := math.MaxFloat64
	for _, tr := range t.tracks {
		if tr.Confidence < min {
			min = tr.Confidence
		}
	}
	return min
}

// LastFrame returns the highest frame number ingested so far.
func (t *Tracker) LastFrame() uint64 { return t.lastFrame }
