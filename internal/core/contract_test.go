package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/match"
	"github.com/edge-mar/scatter/internal/wire"
)

// The accuracy contract: what recognition answers before the tracker,
// scored against the generator's exact ground truth. Kernel PRs keep
// their exact-equality oracles; a change that is allowed to move results
// (RANSAC's adaptive stop, the geometric checks) is held to these
// numbers instead.
//
// Clips: trace seeds 3, 7 and 11, each with smooth and shaky motion, 300
// frames at 320×180, every third frame — 600 frames. Each runs primary,
// sift, encoding and lsh through NewProcessors, then Matching.matchObject
// on every lsh candidate. A pose is a hit when its box overlaps the
// object's true box at IoU > 0.3, and false otherwise.
const (
	contractStride = 3
	// Committed today's numbers with their margins: hits may fall to
	// 97 % of these, false poses may not rise, and the worst-corner
	// error percentiles may grow by 0.5 px.
	contractMonitorHits  = 535
	contractKeyboardHits = 360
	contractMugHits      = 1
	contractFalsePoses   = 4
	contractCornerP50    = 4.49  // px
	contractCornerP95    = 19.19 // px
	contractHitMargin    = 0.97
	contractCornerMargin = 0.5 // px
)

// contractScore is the contract's tally over all its clips.
type contractScore struct {
	frames int
	hits   [trace.NumObjects]int
	// visible counts frames where the object is at least partly in view.
	visible [trace.NumObjects]int
	falses  int
	// corners is the worst-corner error of every hit, in pixels: the
	// largest distance between a projected reference corner and the true
	// one.
	corners []float64
}

func (s *contractScore) String() string {
	return fmt.Sprintf("%d frames: hits monitor %d/%d keyboard %d/%d mug %d/%d, %d false poses (%.3f per frame), worst-corner error p50 %.2f p95 %.2f px",
		s.frames,
		s.hits[trace.ObjectMonitor], s.visible[trace.ObjectMonitor],
		s.hits[trace.ObjectKeyboard], s.visible[trace.ObjectKeyboard],
		s.hits[trace.ObjectMug], s.visible[trace.ObjectMug],
		s.falses, float64(s.falses)/float64(s.frames),
		s.cornerQuantile(0.5), s.cornerQuantile(0.95))
}

// cornerQuantile is the nearest-rank q-quantile of the hits' worst-corner
// errors (NaN without hits).
func (s *contractScore) cornerQuantile(q float64) float64 {
	if len(s.corners) == 0 {
		return math.NaN()
	}
	sorted := slices.Sorted(slices.Values(s.corners))
	return sorted[max(0, int(math.Ceil(q*float64(len(sorted))))-1)]
}

// scoreContract runs the contract's clips and tallies their poses.
func scoreContract(t testing.TB) *contractScore {
	t.Helper()
	s := &contractScore{}
	for _, seed := range []int64{3, 7, 11} {
		// Both motions of a seed share its reference images.
		var model *Model
		for _, motion := range []trace.Motion{trace.MotionSmooth, trace.MotionShaky} {
			gen := trace.NewGenerator(trace.Config{W: 320, H: 180, Seed: seed, Motion: motion})
			if model == nil {
				var err error
				if model, err = Train(gen.ReferenceImages(), TrainConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			s.scoreClip(t, gen, model)
		}
	}
	return s
}

func (s *contractScore) scoreClip(t testing.TB, gen *trace.Generator, model *Model) {
	t.Helper()
	procs := NewProcessors(model, true, 320, 180)
	matching := procs[wire.StepMatching].(*Matching)
	sc := new(matchScratch)
	for i := 0; i < gen.NumFrames(); i += contractStride {
		fr := clientFrame(t, gen, 1, uint64(i+1), i)
		for step := wire.StepPrimary; step < wire.StepMatching; step++ {
			if err := procs[step].Process(fr); err != nil {
				t.Fatalf("frame %d step %s: %v", i, step, err)
			}
		}
		p, err := DecodePayload(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		s.frames++
		truth := gen.GroundTruth(i)
		for _, pl := range truth {
			if pl.Visible {
				s.visible[pl.ObjectID]++
			}
		}
		query := sc.featuresToSIFT(p.Features)
		for _, cand := range p.Candidates {
			ref := matching.refs[cand.ObjectID]
			det, ok := matching.matchObject(sc, query, ref)
			if !ok {
				continue
			}
			pl := truth[det.ObjectID]
			if match.IoU(det.Box, gtBox(pl, ref.W, ref.H)) <= 0.3 {
				s.falses++
				continue
			}
			s.hits[det.ObjectID]++
			worst := 0.0
			for _, corner := range [4]match.Point{{}, {X: ref.W}, {X: ref.W, Y: ref.H}, {Y: ref.H}} {
				got := det.Pose.Apply(corner)
				want := match.Point{X: pl.OffX + pl.Scale*corner.X, Y: pl.OffY + pl.Scale*corner.Y}
				worst = max(worst, math.Hypot(got.X-want.X, got.Y-want.Y))
			}
			s.corners = append(s.corners, worst)
		}
	}
}

func TestAccuracyContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 600 frames through real SIFT")
	}
	if raceEnabled {
		t.Skip("600 frames of SIFT are too slow under -race")
	}
	s := scoreContract(t)
	t.Log(s)
	for _, c := range []struct {
		id   int
		want int
	}{
		{trace.ObjectMonitor, contractMonitorHits},
		{trace.ObjectKeyboard, contractKeyboardHits},
		{trace.ObjectMug, contractMugHits},
	} {
		if float64(s.hits[c.id]) < contractHitMargin*float64(c.want) {
			t.Errorf("%s hits = %d, want >= %.0f %% of %d",
				trace.ObjectName(c.id), s.hits[c.id], 100*contractHitMargin, c.want)
		}
	}
	if s.falses > contractFalsePoses {
		t.Errorf("false poses = %d, want <= %d", s.falses, contractFalsePoses)
	}
	if p50 := s.cornerQuantile(0.5); !(p50 <= contractCornerP50+contractCornerMargin) {
		t.Errorf("worst-corner error p50 = %.2f px, want <= %.2f", p50, contractCornerP50+contractCornerMargin)
	}
	if p95 := s.cornerQuantile(0.95); !(p95 <= contractCornerP95+contractCornerMargin) {
		t.Errorf("worst-corner error p95 = %.2f px, want <= %.2f", p95, contractCornerP95+contractCornerMargin)
	}
}
