package orb

// Exact-equality oracle for the detector's shortcuts (the compass-point
// rejection in fastScore, ranking before describing): refDetect is the
// detector as it was before them.

import (
	"math"
	"sort"
	"testing"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/imgproc"
)

func refFastScore(img *imgproc.Gray, x, y int, threshold float32) float64 {
	c := img.Pix[y*img.W+x]
	var brighter, darker [16]bool
	var diff [16]float32
	for i, off := range circleOffsets {
		v := img.Pix[(y+off[1])*img.W+(x+off[0])]
		d := v - c
		diff[i] = d
		brighter[i] = d > threshold
		darker[i] = d < -threshold
	}
	contiguous := func(mask *[16]bool) bool {
		run := 0
		for i := 0; i < 32; i++ {
			if mask[i%16] {
				run++
				if run >= 9 {
					return true
				}
			} else {
				run = 0
			}
		}
		return false
	}
	if !contiguous(&brighter) && !contiguous(&darker) {
		return 0
	}
	score := 0.0
	for _, d := range diff {
		score += math.Abs(float64(d))
	}
	return score
}

func refDetect(d *Detector, img *imgproc.Gray) []Feature {
	border := d.cfg.PatchRadius + 4
	if img.W <= 2*border || img.H <= 2*border {
		return nil
	}
	threshold := float32(d.cfg.Threshold)
	type corner struct {
		x, y  int
		score float64
	}
	scores := make([]float64, img.W*img.H)
	var corners []corner
	for y := border; y < img.H-border; y++ {
		for x := border; x < img.W-border; x++ {
			s := refFastScore(img, x, y, threshold)
			if s > 0 {
				scores[y*img.W+x] = s
				corners = append(corners, corner{x: x, y: y, score: s})
			}
		}
	}
	smoothed := imgproc.GaussianBlur(img, 2.0)
	var feats []Feature
	for _, c := range corners {
		max := true
		for dy := -1; dy <= 1 && max; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				if scores[(c.y+dy)*img.W+(c.x+dx)] > c.score {
					max = false
					break
				}
			}
		}
		if !max {
			continue
		}
		ori := orientation(img, c.x, c.y, d.cfg.PatchRadius)
		f := Feature{X: float64(c.x), Y: float64(c.y), Score: c.score, Orientation: ori}
		f.Desc = d.describe(smoothed, c.x, c.y, ori)
		feats = append(feats, f)
	}
	sort.Slice(feats, func(i, j int) bool { return feats[i].Score > feats[j].Score })
	if d.cfg.MaxFeatures > 0 && len(feats) > d.cfg.MaxFeatures {
		feats = feats[:d.cfg.MaxFeatures]
	}
	return feats
}

func TestDetectMatchesReference(t *testing.T) {
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, Seed: 7})
	images := []*imgproc.Gray{gen.GrayFrame(0), gen.GrayFrame(33), testPattern(160, 120, 3)}
	for ii, img := range images {
		for _, maxFeatures := range []int{0, 150, 10} {
			d := New(Config{MaxFeatures: maxFeatures})
			got, want := d.Detect(img), refDetect(d, img)
			if len(want) == 0 {
				t.Fatalf("image %d: reference finds no features", ii)
			}
			if len(got) != len(want) {
				t.Fatalf("image %d cap %d: %d features, reference %d", ii, maxFeatures, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("image %d cap %d: feature %d = %+v, reference %+v", ii, maxFeatures, i, got[i], want[i])
				}
			}
		}
	}
}
