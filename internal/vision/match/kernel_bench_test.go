package match

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/edge-mar/scatter/internal/vision/sift"
	"github.com/edge-mar/scatter/internal/vision/simd"
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

// BenchmarkKernelRatioTest measures the brute-force descriptor matching
// kernel, serial. "q150xt150" is one query set against one reference
// object at the calibration profile's 150-feature cap, random-normal
// rows rather than SIFT descriptors. "clip" is the matching service's
// shape: the clip's query features (frames clipFrames) against each
// trained reference object's, one op the whole set; it reports the time
// per query feature and how many train rows per query the float32
// screen leaves for exact ranking (the limit against the final second-
// smallest screened value; a candidate ranked early can count once more).
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
	cs := clipCorrespondences(b, clipFrames)
	queries, survivors := 0, 0
	for _, c := range cs {
		queries += len(c.query)
		for qi := range c.query {
			survivors += screenSurvivors(&c.query[qi].Desc, c.train)
		}
	}
	b.Run("clip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cs {
				ratioTest(c.query, c.train, 0.85, 1)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*queries), "ns/query")
		b.ReportMetric(float64(survivors)/float64(queries), "survivors/query")
	})
}

// screenSurvivors counts the train rows whose screened distance to q is
// within screenLimit of the second-smallest.
func screenSurvivors(q *sift.Descriptor, train []sift.Feature) int {
	screens := make([]float32, 0, len(train))
	for ti := 0; ti < len(train); ti += 16 {
		n := min(16, len(train)-ti)
		var rows [16]*float32
		for r := range rows {
			rows[r] = &train[ti+min(r, n-1)].Desc[0]
		}
		var s [16]float32
		simd.SqDistScreen16(&s, q[:], &rows)
		screens = append(screens, s[:n]...)
	}
	sorted := slices.Clone(screens)
	slices.Sort(sorted)
	if len(sorted) < 2 {
		return len(sorted)
	}
	limit := screenLimit(sorted[1])
	kept := 0
	for _, s := range screens {
		if float64(s) <= limit {
			kept++
		}
	}
	return kept
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
