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
// (matchingRANSAC: at most 400 iterations, threshold 5, at least 5
// inliers) over the recorded clip's correspondences, every frame and
// object with four pairs or more per op; ns/call is the time per
// EstimateHomographyRANSAC call, the shape vision.match.ransac_ms sees.
// "one-per-point" feeds the pairs the matching service keeps;
// "ratio-test" feeds every ratio-test match, as the ledger's kernel pass
// does and as the service did before it kept one match per reference
// location.
func BenchmarkRANSACClip(b *testing.B) {
	cs := clipCorrespondences(b, clipFrames)
	for _, mode := range []string{"one-per-point", "ratio-test"} {
		var src, dst [][]Point
		for _, c := range cs {
			s, d := c.oneSrc, c.oneDst
			if mode == "ratio-test" {
				s, d = c.src, c.dst
			}
			if len(s) >= 4 {
				src, dst = append(src, s), append(dst, d)
			}
		}
		if len(src) == 0 {
			b.Fatal("the clip yields no correspondence set RANSAC can run on")
		}
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range src {
					_, _ = EstimateHomographyRANSAC(src[j], dst[j], matchingRANSAC)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/call")
		})
	}
}
