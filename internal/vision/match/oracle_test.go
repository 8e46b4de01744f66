package match

// Exact-equality oracles for the matching kernels. The functions prefixed
// ref are the bodies the package shipped before the allocation-free
// solver, the two-buffer RANSAC and the four-row distance sweep, kept
// verbatim (slices, per-sample allocations and all); the tests demand
// reflect.DeepEqual results — every float bit, every inlier index, the
// same error or none — on the recorded clip's real correspondences and on
// random sets chosen to reach the degenerate paths.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/parallel"
	"github.com/edge-mar/scatter/internal/vision/sift"
)

// refRatioTest is the one-train-row-per-sift.L2Sq-call scan.
func refRatioTest(query, train []sift.Feature, ratio float64, workers int) []Match {
	if ratio <= 0 || ratio >= 1 {
		ratio = 0.8
	}
	// Fewer than two train features cannot support the ratio test: there
	// is no second-nearest distance to compare against, so every match
	// would be unverifiable. Return none rather than admitting them.
	if len(train) < 2 {
		return nil
	}
	parts := make([][]Match, parallel.Chunks(len(query), ratioGrain))
	parallel.For(workers, len(query), ratioGrain, func(chunk, start, end int) {
		var out []Match
		for qi := start; qi < end; qi++ {
			// Deferred sqrt: best/second are tracked as squared L2 — sqrt
			// is monotone, so the selection picks the same pair — and only
			// the two survivors are sqrt'd, turning |train| sqrts per query
			// feature into two. The emitted Dist and the ratio comparison
			// use the sqrt'd values, so output matches a per-pair-L2 scan.
			best, second := math.Inf(1), math.Inf(1)
			bestIdx := -1
			for ti := range train {
				d := sift.L2Sq(&query[qi].Desc, &train[ti].Desc)
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
			bestD, secondD := math.Sqrt(best), math.Sqrt(second)
			// secondD == 0 means a duplicate train descriptor ties the
			// best match exactly — ambiguous, so reject it (the old
			// behavior admitted these bogus matches).
			if secondD > 0 && bestD < ratio*secondD {
				out = append(out, Match{QueryIdx: qi, TrainIdx: bestIdx, Dist: bestD})
			}
		}
		parts[chunk] = out
	})
	var out []Match
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// refSolveLinear solves the n×n system a·x = b in place using Gaussian
// elimination with partial pivoting. Returns false if singular.
func refSolveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		maxAbs := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		// The comparison is written so a NaN pivot (from NaN/Inf input
		// coordinates) also reports singular instead of silently
		// propagating NaN through back-substitution.
		if !(maxAbs >= 1e-12) {
			return nil, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}

// refHomographyFromPairs estimates H mapping src[i] -> dst[i] by solving the
// DLT linear system with h22 fixed to 1. It requires >= 4 pairs; with more
// than 4 it solves the least-squares normal equations.
func refHomographyFromPairs(src, dst []Point) (Homography, error) {
	n := len(src)
	if n < 4 || len(dst) != n {
		return Identity(), fmt.Errorf("%w: %d pairs", ErrDegenerate, n)
	}
	// Normalize points for conditioning (Hartley normalization).
	srcN, tSrc := refNormalizePoints(src)
	dstN, tDst := refNormalizePoints(dst)

	// Build the 2n×8 design matrix rows; solve least squares via normal
	// equations AtA x = Atb (8×8).
	ata := make([][]float64, 8)
	for i := range ata {
		ata[i] = make([]float64, 8)
	}
	atb := make([]float64, 8)
	row := make([]float64, 8)
	addRow := func(rhs float64) {
		for i := 0; i < 8; i++ {
			if row[i] == 0 {
				continue
			}
			for j := 0; j < 8; j++ {
				ata[i][j] += row[i] * row[j]
			}
			atb[i] += row[i] * rhs
		}
	}
	for i := 0; i < n; i++ {
		x, y := srcN[i].X, srcN[i].Y
		u, v := dstN[i].X, dstN[i].Y
		row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7] =
			x, y, 1, 0, 0, 0, -u*x, -u*y
		addRow(u)
		row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7] =
			0, 0, 0, x, y, 1, -v*x, -v*y
		addRow(v)
	}
	sol, ok := refSolveLinear(ata, atb)
	if !ok {
		return Identity(), ErrDegenerate
	}
	hn := Homography{sol[0], sol[1], sol[2], sol[3], sol[4], sol[5], sol[6], sol[7], 1}
	// Denormalize: H = tDst^-1 · Hn · tSrc.
	tDstInv, err := tDst.invertAffine()
	if err != nil {
		return Identity(), err
	}
	tmp := hn.Mul(&tSrc)
	h := tDstInv.Mul(&tmp)
	// Near-collinear configurations can slip past the pivot threshold and
	// produce enormous or non-finite entries; callers (RANSAC scoring)
	// must never see such a model as a success.
	if !h.isFinite() {
		return Identity(), ErrDegenerate
	}
	return h, nil
}

// refNormalizePoints translates points to zero centroid and scales to mean
// distance sqrt(2) (Hartley). Returns the transformed points and the
// similarity transform T with out = T(in).
func refNormalizePoints(pts []Point) ([]Point, Homography) {
	var cx, cy float64
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	n := float64(len(pts))
	cx /= n
	cy /= n
	var meanDist float64
	for _, p := range pts {
		meanDist += math.Hypot(p.X-cx, p.Y-cy)
	}
	meanDist /= n
	scale := 1.0
	if meanDist > 1e-12 {
		scale = math.Sqrt2 / meanDist
	}
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{X: (p.X - cx) * scale, Y: (p.Y - cy) * scale}
	}
	t := Homography{scale, 0, -scale * cx, 0, scale, -scale * cy, 0, 0, 1}
	return out, t
}

// refEstimateHomographyRANSAC robustly fits a homography src -> dst. It
// returns ErrDegenerate when no model reaches MinInliers.
func refEstimateHomographyRANSAC(src, dst []Point, cfg RANSACConfig) (*RANSACResult, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 500
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MinInliers <= 0 {
		cfg.MinInliers = 8
	}
	n := len(src)
	if n < 4 || len(dst) != n {
		return nil, fmt.Errorf("%w: %d correspondences", ErrDegenerate, n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	thresholdSq := cfg.Threshold * cfg.Threshold

	var bestInliers []int
	sample := make([]int, 4)
	s4, d4 := make([]Point, 4), make([]Point, 4)
	for it := 0; it < cfg.Iterations; it++ {
		// Sample 4 distinct indices.
		for i := range sample {
			for {
				c := rng.Intn(n)
				dup := false
				for j := 0; j < i; j++ {
					if sample[j] == c {
						dup = true
						break
					}
				}
				if !dup {
					sample[i] = c
					break
				}
			}
		}
		for i, idx := range sample {
			s4[i] = src[idx]
			d4[i] = dst[idx]
		}
		h, err := refHomographyFromPairs(s4, d4)
		if err != nil {
			continue
		}
		var inliers []int
		for i := 0; i < n; i++ {
			p := h.Apply(src[i])
			if math.IsNaN(p.X) {
				continue
			}
			dx := p.X - dst[i].X
			dy := p.Y - dst[i].Y
			if dx*dx+dy*dy <= thresholdSq {
				inliers = append(inliers, i)
			}
		}
		if len(inliers) > len(bestInliers) {
			bestInliers = inliers
			// Early exit when almost everything is an inlier.
			if len(bestInliers) > n*95/100 {
				break
			}
		}
	}
	if len(bestInliers) < cfg.MinInliers {
		return nil, fmt.Errorf("%w: best model has %d inliers < %d",
			ErrDegenerate, len(bestInliers), cfg.MinInliers)
	}
	// Refine on all inliers.
	srcIn := make([]Point, len(bestInliers))
	dstIn := make([]Point, len(bestInliers))
	for i, idx := range bestInliers {
		srcIn[i] = src[idx]
		dstIn[i] = dst[idx]
	}
	h, err := refHomographyFromPairs(srcIn, dstIn)
	if err != nil {
		return nil, err
	}
	return &RANSACResult{
		H:          h,
		Inliers:    bestInliers,
		InlierFrac: float64(len(bestInliers)) / float64(n),
	}, nil
}

// clipCorrespondences runs the clip the ledger plays (trace seed 7,
// 320x180) through the detector and the ratio test the matching service
// uses, and returns, per frame and reference object, the query and train
// features and the matched point pairs RANSAC receives.
type correspondences struct {
	what         string
	query, train []sift.Feature
	src, dst     []Point
}

func clipCorrespondences(t testing.TB) []correspondences {
	t.Helper()
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, Seed: 7})
	cfg := sift.Defaults()
	cfg.MaxFeatures = 150
	det := sift.New(cfg)
	var refs [][]sift.Feature
	for _, ref := range gen.ReferenceImages() {
		refs = append(refs, det.Detect(ref.Img))
	}
	frames := []int{0, 9, 17, 33}
	if testing.Short() {
		frames = frames[:1]
	}
	var out []correspondences
	for _, fi := range frames {
		query := det.Detect(gen.GrayFrame(fi))
		for oi, train := range refs {
			c := correspondences{what: fmt.Sprintf("frame %d object %d", fi, oi), query: query, train: train}
			for _, m := range refRatioTest(query, train, 0.85, 1) {
				c.src = append(c.src, Point{X: train[m.TrainIdx].X, Y: train[m.TrainIdx].Y})
				c.dst = append(c.dst, Point{X: query[m.QueryIdx].X, Y: query[m.QueryIdx].Y})
			}
			out = append(out, c)
		}
	}
	return out
}

// matchingRANSAC is the configuration core.NewMatching runs.
var matchingRANSAC = RANSACConfig{Iterations: 400, Threshold: 5, MinInliers: 5, Seed: 1}

// sameRANSAC compares both outcomes of a RANSAC call: the result down to
// the last bit, and the error by message and by errors.Is.
func sameRANSAC(t *testing.T, what string, src, dst []Point, cfg RANSACConfig) *RANSACResult {
	t.Helper()
	got, gotErr := EstimateHomographyRANSAC(src, dst, cfg)
	want, wantErr := refEstimateHomographyRANSAC(src, dst, cfg)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && (gotErr.Error() != wantErr.Error() ||
		errors.Is(gotErr, ErrDegenerate) != errors.Is(wantErr, ErrDegenerate))) {
		t.Fatalf("%s: err = %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from reference:\n got %+v\nwant %+v", what, got, want)
	}
	return got
}

func TestMatchingMatchesReferenceOnClip(t *testing.T) {
	detected := 0
	for _, c := range clipCorrespondences(t) {
		want := refRatioTest(c.query, c.train, 0.85, 1)
		for _, workers := range []int{1, 2} {
			got := ratioTest(c.query, c.train, 0.85, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ratioTest with %d workers differs from reference", c.what, workers)
			}
		}
		if len(c.src) < 4 {
			continue
		}
		if res := sameRANSAC(t, c.what, c.src, c.dst, matchingRANSAC); res != nil {
			detected++
		}
		// The refinement solve over every pair (the least-squares path).
		got, gotErr := homographyFromPairs(c.src, c.dst)
		want2, wantErr := refHomographyFromPairs(c.src, c.dst)
		if got != want2 || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%s: homographyFromPairs = %v, %v; reference %v, %v", c.what, got, gotErr, want2, wantErr)
		}
	}
	if detected == 0 {
		t.Fatal("no object of the clip reached a pose; the oracle compared failures only")
	}
}

// randomPairs draws n correspondences under a known homography with
// noise, then spoils them per mode so every exit of the solver is taken.
func randomPairs(rng *rand.Rand, n int, mode string) (src, dst []Point) {
	truth := Homography{1.1, 0.05, 12, -0.04, 0.95, -7, 1e-4, -2e-4, 1}
	src = make([]Point, n)
	dst = make([]Point, n)
	for i := range src {
		src[i] = Point{X: rng.Float64() * 320, Y: rng.Float64() * 180}
		dst[i] = truth.Apply(src[i])
		dst[i].X += rng.NormFloat64()
		dst[i].Y += rng.NormFloat64()
		if i%3 == 0 { // outliers
			dst[i] = Point{X: rng.Float64() * 320, Y: rng.Float64() * 180}
		}
	}
	switch mode {
	case "collinear":
		for i := range src {
			src[i].Y = 2*src[i].X + 1
		}
	case "duplicate":
		for i := range src {
			src[i], dst[i] = src[i%2], dst[i%2]
		}
	case "nonfinite":
		for i := 0; i < n; i += 4 {
			dst[i].X = math.NaN()
		}
		if n > 1 {
			src[1].Y = math.Inf(1)
		}
	case "zeros":
		for i := range src {
			if i%2 == 0 {
				src[i].X = 0
			}
		}
	}
	return src, dst
}

func TestRANSACMatchesReferenceOnRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, mode := range []string{"clean", "collinear", "duplicate", "nonfinite", "zeros"} {
		for _, n := range []int{0, 3, 4, 5, 8, 40, 120} {
			for _, cfg := range []RANSACConfig{{}, matchingRANSAC, {Iterations: 30, Threshold: 1, MinInliers: 4, Seed: 9}} {
				src, dst := randomPairs(rng, n, mode)
				what := fmt.Sprintf("%s n=%d cfg=%+v", mode, n, cfg)
				sameRANSAC(t, what, src, dst, cfg)
				got, gotErr := homographyFromPairs(src, dst)
				want, wantErr := refHomographyFromPairs(src, dst)
				if got != want || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("%s: homographyFromPairs = %v, %v; reference %v, %v", what, got, gotErr, want, wantErr)
				}
			}
		}
	}
	if _, err := EstimateHomographyRANSAC(make([]Point, 5), make([]Point, 4), RANSACConfig{}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("length mismatch err = %v, want ErrDegenerate", err)
	}
}

// The four-row sweep against the one-row scan on inputs that reach its
// edges: train counts around multiples of four, fewer than two rows,
// duplicate and all-equal rows (ties in the selection), workers 1 and 2.
func TestRatioTestMatchesReferenceOnRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, nTrain := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 150} {
		for _, nQuery := range []int{0, 1, 17, 40} {
			query := randomFeatures(rng, nQuery)
			train := randomFeatures(rng, nTrain)
			for i := 0; i+1 < nTrain && i < nQuery; i += 2 {
				train[i].Desc = query[i].Desc
				train[i].Desc[i%sift.DescriptorSize] += 0.01
			}
			if nTrain > 6 {
				train[5] = train[2]
				train[6] = train[2]
			}
			for _, ratio := range []float64{0.8, 0.99, 0} {
				want := refRatioTest(query, train, ratio, 1)
				for _, workers := range []int{1, 2} {
					if got := ratioTest(query, train, ratio, workers); !reflect.DeepEqual(got, want) {
						t.Fatalf("train %d query %d ratio %v workers %d: differs from reference", nTrain, nQuery, ratio, workers)
					}
				}
			}
		}
	}
}

// RANSAC's allocation budget on the clip's correspondences: the random
// source (two), the two inlier buffers, the refinement's point pairs and
// the result — where the slice-based solver made some 4 900 per object.
func TestRANSACAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	const budget = 8
	for _, c := range clipCorrespondences(t) {
		if len(c.src) < 4 {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() { _, _ = EstimateHomographyRANSAC(c.src, c.dst, matchingRANSAC) })
		if allocs > budget {
			t.Errorf("%s (%d pairs): RANSAC allocates %v times, budget %d", c.what, len(c.src), allocs, budget)
		}
	}
}
