// Package orb implements an ORB-style fast feature extractor — FAST-9
// corner detection with non-maximum suppression, intensity-centroid
// orientation, and a 256-bit rotated-BRIEF binary descriptor matched
// under Hamming distance.
//
// The paper's §5 notes that substituting SIFT with a faster extractor
// (citing an energy-efficient SIFT accelerator) shifts the pipeline's
// saturation point to more clients without changing the architectural
// bottlenecks. This package provides that faster extractor for the real
// pipeline: roughly an order of magnitude cheaper than the SIFT
// implementation, with descriptors embeddable into the same PCA/Fisher
// pipeline through Float32Descriptor.
package orb

import (
	"math"
	"math/rand"
	"sort"

	"github.com/edge-mar/scatter/internal/vision/imgproc"
)

// DescriptorBits is the BRIEF descriptor length in bits.
const DescriptorBits = 256

// DescriptorWords is the descriptor length in 64-bit words.
const DescriptorWords = DescriptorBits / 64

// Descriptor is a 256-bit binary BRIEF descriptor.
type Descriptor [DescriptorWords]uint64

// Hamming returns the number of differing bits between two descriptors.
func Hamming(a, b *Descriptor) int {
	d := 0
	for i := range a {
		d += popcount(a[i] ^ b[i])
	}
	return d
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Feature is one detected keypoint with its descriptor.
type Feature struct {
	X, Y        float64
	Score       float64 // FAST corner score (sum of absolute differences)
	Orientation float64 // radians
	Desc        Descriptor
}

// Config controls detection. Zero values take defaults.
type Config struct {
	// Threshold is the FAST intensity threshold in [0,1] (default 0.08).
	Threshold float64
	// MaxFeatures caps returned features by score (0 = no cap).
	MaxFeatures int
	// PatchRadius is the descriptor sampling radius (default 12).
	PatchRadius int
	// Seed fixes the BRIEF sampling pattern (default 1).
	Seed int64
}

// Detector extracts ORB features. Safe for concurrent use after creation.
type Detector struct {
	cfg   Config
	pairs [DescriptorBits][4]float64 // x1, y1, x2, y2 sampling offsets
}

// New builds a detector with a seeded BRIEF pattern.
func New(cfg Config) *Detector {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.08
	}
	if cfg.PatchRadius <= 0 {
		cfg.PatchRadius = 12
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	d := &Detector{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := float64(cfg.PatchRadius)
	for i := range d.pairs {
		// Gaussian-distributed point pairs clipped to the patch.
		clip := func(v float64) float64 {
			if v > r {
				return r
			}
			if v < -r {
				return -r
			}
			return v
		}
		d.pairs[i] = [4]float64{
			clip(rng.NormFloat64() * r / 2), clip(rng.NormFloat64() * r / 2),
			clip(rng.NormFloat64() * r / 2), clip(rng.NormFloat64() * r / 2),
		}
	}
	return d
}

// circleOffsets is the Bresenham circle of radius 3 used by FAST-9.
var circleOffsets = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// fastScore returns a positive corner score if (x, y) is a FAST-9 corner
// (≥9 contiguous circle pixels all brighter or all darker than the
// center by the threshold), else 0.
func fastScore(img *imgproc.Gray, x, y int, threshold float32) float64 {
	c := img.Pix[y*img.W+x]
	// Any 9 contiguous circle pixels include two of the four compass
	// points, so a pixel with fewer than two of them beyond the threshold
	// on the same side cannot be a corner.
	var compassBrighter, compassDarker int
	for i := 0; i < 16; i += 4 {
		off := circleOffsets[i]
		d := img.Pix[(y+off[1])*img.W+(x+off[0])] - c
		if d > threshold {
			compassBrighter++
		} else if d < -threshold {
			compassDarker++
		}
	}
	if compassBrighter < 2 && compassDarker < 2 {
		return 0
	}
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
		// Scan twice around the circle to catch wraparound runs.
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

// Detect extracts features from the image, ordered by decreasing score.
func (d *Detector) Detect(img *imgproc.Gray) []Feature {
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
			s := fastScore(img, x, y, threshold)
			if s > 0 {
				scores[y*img.W+x] = s
				corners = append(corners, corner{x: x, y: y, score: s})
			}
		}
	}
	// 3×3 non-maximum suppression.
	kept := corners[:0]
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
		if max {
			kept = append(kept, c)
		}
	}
	// Rank and cap before describing: the order depends on scores alone,
	// so only the features that are returned pay for a descriptor.
	sort.Slice(kept, func(i, j int) bool { return kept[i].score > kept[j].score })
	if d.cfg.MaxFeatures > 0 && len(kept) > d.cfg.MaxFeatures {
		kept = kept[:d.cfg.MaxFeatures]
	}
	if len(kept) == 0 {
		return nil
	}
	smoothed := imgproc.GaussianBlur(img, 2.0)
	feats := make([]Feature, len(kept))
	for i, c := range kept {
		ori := orientation(img, c.x, c.y, d.cfg.PatchRadius)
		feats[i] = Feature{X: float64(c.x), Y: float64(c.y), Score: c.score, Orientation: ori}
		feats[i].Desc = d.describe(smoothed, c.x, c.y, ori)
	}
	return feats
}

// orientation computes the intensity-centroid angle of the patch.
func orientation(img *imgproc.Gray, x, y, radius int) float64 {
	var m10, m01 float64
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx*dx+dy*dy > radius*radius {
				continue
			}
			v := float64(img.At(x+dx, y+dy))
			m10 += float64(dx) * v
			m01 += float64(dy) * v
		}
	}
	return math.Atan2(m01, m10)
}

// describe samples the rotated BRIEF pattern on the smoothed image.
func (d *Detector) describe(img *imgproc.Gray, x, y int, ori float64) Descriptor {
	var desc Descriptor
	cosT, sinT := math.Cos(ori), math.Sin(ori)
	fx, fy := float64(x), float64(y)
	for i, p := range d.pairs {
		x1 := fx + cosT*p[0] - sinT*p[1]
		y1 := fy + sinT*p[0] + cosT*p[1]
		x2 := fx + cosT*p[2] - sinT*p[3]
		y2 := fy + sinT*p[2] + cosT*p[3]
		if img.BilinearAt(x1, y1) < img.BilinearAt(x2, y2) {
			desc[i/64] |= 1 << uint(i%64)
		}
	}
	return desc
}

// Float32Descriptor embeds a binary descriptor into Euclidean space
// (bit → ±1, L2-normalized), so ORB features can flow through the same
// PCA/Fisher encoding pipeline as SIFT descriptors. Squared Euclidean
// distance of embeddings is proportional to Hamming distance.
func Float32Descriptor(d *Descriptor) []float32 {
	out := make([]float32, DescriptorBits)
	norm := float32(1 / math.Sqrt(DescriptorBits))
	for i := 0; i < DescriptorBits; i++ {
		if d[i/64]&(1<<uint(i%64)) != 0 {
			out[i] = norm
		} else {
			out[i] = -norm
		}
	}
	return out
}

// Match associates each query feature with its nearest train feature by
// Hamming distance, keeping matches below maxDist that also pass the
// ratio test against the second-nearest (ratio in (0, 1), typical 0.9
// for binary descriptors).
type Match struct {
	QueryIdx, TrainIdx int
	Dist               int
}

// MatchFeatures performs ratio-tested Hamming matching.
func MatchFeatures(query, train []Feature, maxDist int, ratio float64) []Match {
	if maxDist <= 0 {
		maxDist = 64
	}
	if ratio <= 0 || ratio >= 1 {
		ratio = 0.9
	}
	var out []Match
	for qi := range query {
		best, second := DescriptorBits+1, DescriptorBits+1
		bestIdx := -1
		for ti := range train {
			dist := Hamming(&query[qi].Desc, &train[ti].Desc)
			if dist < best {
				second = best
				best = dist
				bestIdx = ti
			} else if dist < second {
				second = dist
			}
		}
		if bestIdx < 0 || best > maxDist {
			continue
		}
		if float64(best) < ratio*float64(second) {
			out = append(out, Match{QueryIdx: qi, TrainIdx: bestIdx, Dist: best})
		}
	}
	return out
}
