package match

import (
	"math"
	"math/rand"
	"testing"

	"github.com/edge-mar/scatter/internal/vision/sift"
)

// referenceRatioTest is the pre-deferred-sqrt kernel, kept as an oracle:
// per-pair sift.L2 (sqrt per distance), best/second selection on the
// sqrt'd values, ratio comparison on the same. The production kernel
// selects on squared distances and takes two sqrts per query feature;
// sqrt is monotone and L2 = Sqrt(L2Sq) with the identical summation, so
// results must match bit for bit.
func referenceRatioTest(query, train []sift.Feature, ratio float64) []Match {
	if ratio <= 0 || ratio >= 1 {
		ratio = 0.8
	}
	if len(train) < 2 {
		return nil
	}
	var out []Match
	for qi := range query {
		best, second := math.Inf(1), math.Inf(1)
		bestIdx := -1
		for ti := range train {
			d := sift.L2(&query[qi].Desc, &train[ti].Desc)
			if d < best {
				second = best
				best = d
				bestIdx = ti
			} else if d < second {
				second = d
			}
		}
		if bestIdx < 0 {
			continue
		}
		if second > 0 && best < ratio*second {
			out = append(out, Match{QueryIdx: qi, TrainIdx: bestIdx, Dist: best})
		}
	}
	return out
}

func matchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, reference %+v (Dist must be bit-identical)",
				label, i, got[i], want[i])
		}
	}
}

// TestRatioTestDeferredSqrtMatchesReference pins the deferred-sqrt
// kernels — serial and parallel — to the per-pair-sqrt reference
// scan with exact equality, including the emitted Dist.
func TestRatioTestDeferredSqrtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 5; trial++ {
		query := randomFeatures(rng, 60+trial*11)
		train := randomFeatures(rng, 45+trial*7)
		// Plant near-duplicates of some query descriptors so the emit
		// path is exercised (random pairs rarely pass the ratio test),
		// and duplicate train descriptors for the tie/ambiguity
		// rejection path (second == 0 after an exact duplicate best).
		for i := 0; i < 10; i++ {
			train[i*3].Desc = query[i*5].Desc
			for d := 0; d < 8; d++ {
				train[i*3].Desc[d] += float32(rng.NormFloat64()) * 0.01
			}
		}
		train[3] = train[7]
		want := referenceRatioTest(query, train, 0.8)
		if len(want) == 0 {
			t.Fatalf("trial %d: reference produced no matches; test data too weak", trial)
		}
		matchesEqual(t, "serial", ratioTest(query, train, 0.8, 1), want)
		matchesEqual(t, "parallel", ratioTest(query, train, 0.8, 4), want)
	}
	// Exact-duplicate query/train pairs: best distance 0 must still win
	// the ratio test when the second-nearest is nonzero.
	query := randomFeatures(rng, 8)
	train := randomFeatures(rng, 8)
	copy(train[2].Desc[:], query[5].Desc[:])
	matchesEqual(t, "dup", ratioTest(query, train, 0.8, 1), referenceRatioTest(query, train, 0.8))
}
