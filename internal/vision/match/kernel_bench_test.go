package match

import (
	"math/rand"
	"testing"

	"github.com/edge-mar/scatter/internal/vision/sift"
)

// randomFeatures builds n features with dense random descriptors — the
// shape of a per-frame ratio-test input at the paper's MaxFeatures cap.
func randomFeatures(rng *rand.Rand, n int) []sift.Feature {
	out := make([]sift.Feature, n)
	for i := range out {
		for d := range out[i].Desc {
			out[i].Desc[d] = float32(rng.NormFloat64())
		}
	}
	return out
}

// BenchmarkKernelRatioTest measures the per-frame brute-force descriptor
// matching kernel (serial, one frame = one query set against one
// reference object) at the calibration profile's 150-feature cap.
func BenchmarkKernelRatioTest(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	query := randomFeatures(rng, 150)
	train := randomFeatures(rng, 150)
	b.Run("q150xt150", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ratioTest(query, train, 0.8, 1)
		}
	})
}

// BenchmarkRANSACClip is RANSAC as the matching service runs it
// (matchingRANSAC: 400 iterations, threshold 5, at least 5 inliers) over
// the recorded clip's correspondences, every frame and object with four
// pairs or more per op; ns/call is the time per EstimateHomographyRANSAC
// call, the shape vision.match.ransac_ms sees.
func BenchmarkRANSACClip(b *testing.B) {
	var sets []correspondences
	for _, c := range clipCorrespondences(b) {
		if len(c.src) >= 4 {
			sets = append(sets, c)
		}
	}
	if len(sets) == 0 {
		b.Fatal("the clip yields no correspondence set RANSAC can run on")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sets {
			_, _ = EstimateHomographyRANSAC(c.src, c.dst, matchingRANSAC)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets)), "ns/call")
}
