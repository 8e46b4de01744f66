package match

// Oracles for the matching kernels. The functions prefixed ref are the
// bodies the package shipped before the allocation-free solver, the
// two-buffer RANSAC and the four-row distance sweep, kept verbatim
// (slices, per-sample allocations and all). The ratio test and the
// homography solve must equal theirs exactly — every float bit, every
// index, the same error or none. RANSAC is the one approximate result:
// it stops adaptively where refEstimateHomographyRANSAC, its exact twin,
// runs a fixed count, so it is held to the twin within a stated tolerance
// (DESIGN §1): on the recorded clip the two accept or reject alike on at
// least 95 % of calls and, where both accept, their poses' worst corners
// lie at most 2 px apart at the median; on any set it never reports more
// inliers than the twin, and with as many it returns the twin's result.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/parallel"
	"github.com/edge-mar/scatter/internal/vision/sift"
)

// refL2Sq is the squared distance of two descriptors, one row at a time:
// each difference taken in float32, squared in float64 and added in index
// order from zero.
func refL2Sq(a, b *sift.Descriptor) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i] - b[i])
		sum += d * d
	}
	return sum
}

// refRatioTest is the one-train-row-per-refL2Sq-call scan.
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
				d := refL2Sq(&query[qi].Desc, &train[ti].Desc)
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
// features and the matched point pairs: every ratio-test match (src, dst)
// and one per reference location (oneSrc, oneDst), the set the matching
// service hands RANSAC.
type correspondences struct {
	what           string
	query, train   []sift.Feature
	refW, refH     float64
	src, dst       []Point
	oneSrc, oneDst []Point
}

// clipFrames are the frames clipCorrespondences reads.
var clipFrames = []int{0, 9, 17, 33}

func clipCorrespondences(t testing.TB, frames []int) []correspondences {
	t.Helper()
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, Seed: 7})
	cfg := sift.Defaults()
	cfg.MaxFeatures = 150
	det := sift.New(cfg)
	var refs [][]sift.Feature
	images := gen.ReferenceImages()
	for _, ref := range images {
		refs = append(refs, det.Detect(ref.Img))
	}
	if testing.Short() {
		frames = frames[:1]
	}
	var out []correspondences
	for _, fi := range frames {
		query := det.Detect(gen.GrayFrame(fi))
		for oi, train := range refs {
			c := correspondences{
				what: fmt.Sprintf("frame %d object %d", fi, oi), query: query, train: train,
				refW: float64(images[oi].Img.W), refH: float64(images[oi].Img.H),
			}
			matches := refRatioTest(query, train, 0.85, 1)
			for _, m := range matches {
				c.src = append(c.src, Point{X: train[m.TrainIdx].X, Y: train[m.TrainIdx].Y})
				c.dst = append(c.dst, Point{X: query[m.QueryIdx].X, Y: query[m.QueryIdx].Y})
			}
			for _, m := range refOnePerPoint(matches, train) {
				c.oneSrc = append(c.oneSrc, Point{X: train[m.TrainIdx].X, Y: train[m.TrainIdx].Y})
				c.oneDst = append(c.oneDst, Point{X: query[m.QueryIdx].X, Y: query[m.QueryIdx].Y})
			}
			out = append(out, c)
		}
	}
	return out
}

// refOnePerPoint keeps, of the matches on one reference location, the one
// with the smallest Dist, then the lowest QueryIdx, in input order: the
// matching service's filter, written as the plainest scan.
func refOnePerPoint(matches []Match, train []sift.Feature) []Match {
	var out []Match
	for i, m := range matches {
		p := &train[m.TrainIdx]
		best := true
		for j, o := range matches {
			q := &train[o.TrainIdx]
			if j != i && p.X == q.X && p.Y == q.Y &&
				(o.Dist < m.Dist || o.Dist == m.Dist && o.QueryIdx < m.QueryIdx) {
				best = false
				break
			}
		}
		if best {
			out = append(out, m)
		}
	}
	return out
}

// matchingRANSAC is the configuration core.NewMatching runs.
var matchingRANSAC = RANSACConfig{Iterations: 400, Threshold: 5, MinInliers: 5, Seed: 1}

// againstTwin runs RANSAC and its fixed-iteration twin on one set and
// checks what must hold on any input: the same error where the input is
// refused outright, ErrDegenerate for every rejection, never more inliers
// than the twin, and the twin's result bit for bit when the inlier counts
// are equal (the adaptive run draws the twin's samples in the same order
// and stops earlier, so its best model is then the twin's). It returns
// both results.
func againstTwin(t *testing.T, what string, src, dst []Point, cfg RANSACConfig) (got, want *RANSACResult) {
	t.Helper()
	got, gotErr := EstimateHomographyRANSAC(src, dst, cfg)
	want, wantErr := refEstimateHomographyRANSAC(src, dst, cfg)
	if len(src) < 4 || len(src) != len(dst) {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, ErrDegenerate) {
			t.Fatalf("%s: err = %v, reference %v", what, gotErr, wantErr)
		}
		return nil, nil
	}
	for _, err := range []error{gotErr, wantErr} {
		if err != nil && !errors.Is(err, ErrDegenerate) {
			t.Fatalf("%s: err = %v, want ErrDegenerate", what, err)
		}
	}
	switch {
	case got == nil:
	case want == nil:
		t.Fatalf("%s: %d inliers where the twin found no pose", what, len(got.Inliers))
	case len(got.Inliers) > len(want.Inliers):
		t.Fatalf("%s: %d inliers, more than the twin's %d", what, len(got.Inliers), len(want.Inliers))
	case len(got.Inliers) == len(want.Inliers) && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: as many inliers as the twin but a different result:\n got %+v\nwant %+v", what, got, want)
	}
	return got, want
}

// cornerGap is the largest distance between the reference corners two
// poses project.
func cornerGap(a, b *Homography, refW, refH float64) float64 {
	pa, pb := ProjectCorners(a, refW, refH), ProjectCorners(b, refW, refH)
	gap := 0.0
	for i := range pa {
		gap = max(gap, math.Hypot(pa[i].X-pb[i].X, pa[i].Y-pb[i].Y))
	}
	return gap
}

func TestMatchingMatchesReferenceOnClip(t *testing.T) {
	frames := make([]int, 0, 30)
	for fi := 0; fi < 300; fi += 10 {
		frames = append(frames, fi)
	}
	var calls, agree, detected int
	var gaps []float64
	for _, c := range clipCorrespondences(t, frames) {
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
		for _, set := range [][2][]Point{{c.src, c.dst}, {c.oneSrc, c.oneDst}} {
			if len(set[0]) < 4 {
				continue
			}
			got, twin := againstTwin(t, c.what, set[0], set[1], matchingRANSAC)
			calls++
			if (got == nil) == (twin == nil) {
				agree++
			}
			if got != nil && twin != nil {
				detected++
				gaps = append(gaps, cornerGap(&got.H, &twin.H, c.refW, c.refH))
			}
		}
		// The refinement solve over every pair (the least-squares path).
		got, gotErr := homographyFromPairs(c.src, c.dst)
		want2, wantErr := refHomographyFromPairs(c.src, c.dst)
		if !sameBits(got, want2) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%s: homographyFromPairs = %v, %v; reference %v, %v", c.what, got, gotErr, want2, wantErr)
		}
	}
	if detected == 0 {
		t.Fatal("no object of the clip reached a pose with both; the oracle compared failures only")
	}
	slices.Sort(gaps)
	median := gaps[len(gaps)/2]
	t.Logf("%d calls, accept/reject agrees on %d; worst-corner gap where both accept (%d): median %.3f px, max %.3f px",
		calls, agree, detected, median, gaps[len(gaps)-1])
	if float64(agree) < 0.95*float64(calls) {
		t.Errorf("accept/reject agrees with the twin on %d of %d calls, want >= 95 %%", agree, calls)
	}
	if median > 2 {
		t.Errorf("median worst-corner gap to the twin = %.3f px, want <= 2", median)
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
	case "lattice":
		// Points on the integer lattice −2…2, every zero signed at random,
		// dst = 2·src but for the outliers: four-point samples often have
		// a centroid coordinate equal to a point's, which then normalizes
		// to an exact +0 or −0 — the entries the row-by-row build skipped.
		coord := func() float64 {
			c := float64(rng.Intn(5) - 2)
			if c == 0 && rng.Intn(2) == 0 {
				c = math.Copysign(0, -1)
			}
			return c
		}
		for i := range src {
			src[i] = Point{X: coord(), Y: coord()}
			dst[i] = Point{X: 2 * src[i].X, Y: 2 * src[i].Y}
			if i%3 == 0 {
				dst[i] = Point{X: coord(), Y: coord()}
			}
		}
	}
	return src, dst
}

func TestRANSACMatchesReferenceOnRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, mode := range []string{"clean", "collinear", "duplicate", "nonfinite", "zeros", "lattice"} {
		for _, n := range []int{0, 3, 4, 5, 8, 40, 120} {
			for _, cfg := range []RANSACConfig{{}, matchingRANSAC, {Iterations: 30, Threshold: 1, MinInliers: 4, Seed: 9}} {
				src, dst := randomPairs(rng, n, mode)
				what := fmt.Sprintf("%s n=%d cfg=%+v", mode, n, cfg)
				againstTwin(t, what, src, dst, cfg)
				got, gotErr := homographyFromPairs(src, dst)
				want, wantErr := refHomographyFromPairs(src, dst)
				if !sameBits(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("%s: homographyFromPairs = %v, %v; reference %v, %v", what, got, gotErr, want, wantErr)
				}
			}
		}
	}
	if _, err := EstimateHomographyRANSAC(make([]Point, 5), make([]Point, 4), RANSACConfig{}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("length mismatch err = %v, want ErrDegenerate", err)
	}
}

// A model that explains every pair ends the search: an exact set stops
// after its first sample, with every pair an inlier and the twin's
// result.
func TestRANSACStopsOnAllInlierModel(t *testing.T) {
	truth := knownH()
	rng := rand.New(rand.NewSource(36))
	cfg := matchingRANSAC
	cfg.MinInliers = 4
	for _, n := range []int{4, 5, 40, 120} {
		src := gridPoints(n, 640, 480, rng)
		dst := applyAll(&truth, src)
		res, samples, err := estimateRANSAC(src, dst, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if samples != 1 || len(res.Inliers) != n {
			t.Errorf("n=%d: %d samples, %d inliers; want 1 sample, %d inliers", n, samples, len(res.Inliers), n)
		}
		if want, _ := refEstimateHomographyRANSAC(src, dst, cfg); !reflect.DeepEqual(res, want) {
			t.Errorf("n=%d: result differs from the twin's:\n got %+v\nwant %+v", n, res, want)
		}
	}
}

// The straight-line normal equations against the row-by-row build on
// hand-built sets whose centroid is the origin, so normalized coordinates
// are exactly +0 and −0 (randomPairs' "lattice" mode does the same for
// RANSAC's samples).
func TestHomographyMatchesReferenceOnSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sets := [][]Point{
		{{negZero, 1}, {1, negZero}, {0, -1}, {-1, 0}},
		{{negZero, 1}, {1, 0}, {0, -1}, {-1, negZero}, {negZero, negZero}},
		{{0, 0}, {2, 1}, {-2, -1}, {1, -2}, {-1, 2}, {negZero, 3}, {0, -3}},
	}
	for si, src := range sets {
		for di, scale := range []float64{2, -1, 0.5} {
			dst := make([]Point, len(src))
			for i, p := range src {
				dst[i] = Point{X: scale * p.X, Y: scale * p.Y}
			}
			// The same set with the targets swapped round once, so u
			// and v are exact zeros at other points than x and y.
			rot := append(append([]Point(nil), dst[1:]...), dst[0])
			for _, d := range [][]Point{dst, rot} {
				got, gotErr := homographyFromPairs(src, d)
				want, wantErr := refHomographyFromPairs(src, d)
				if !sameBits(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("set %d dst %d: homographyFromPairs = %v, %v; reference %v, %v", si, di, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// sameBits compares two homographies bit for bit, so a −0 where the
// reference has +0 counts as a difference.
func sameBits(a, b Homography) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The 16-row scan against the one-row scan on inputs that reach its
// edges: every train count from 0 to 40, so every remainder of the
// 16-row block, and two past it; duplicate and all-equal rows (ties in the
// selection); the last train row a near-duplicate of a query, so its
// match hangs on the padded lanes being ignored; workers 1 and 2.
func TestRatioTestMatchesReferenceOnRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	nTrains := []int{63, 150}
	for n := 0; n <= 40; n++ {
		nTrains = append(nTrains, n)
	}
	for _, nTrain := range nTrains {
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
			if nTrain > 2 && nQuery > 1 {
				train[nTrain-1].Desc = query[1].Desc
				train[nTrain-1].Desc[7] += 0.01
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

// RANSAC's allocation budget on the clip's correspondences: the two
// inlier buffers, the refinement's point pairs and the result — where the
// slice-based solver made some 4 900 per object. The random source is
// pooled and reseeded, so it allocates nothing.
func TestRANSACAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	const budget = 5
	for _, c := range clipCorrespondences(t, clipFrames) {
		if len(c.src) < 4 {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() { _, _ = EstimateHomographyRANSAC(c.src, c.dst, matchingRANSAC) })
		if allocs > budget {
			t.Errorf("%s (%d pairs): RANSAC allocates %v times, budget %d", c.what, len(c.src), allocs, budget)
		}
	}
}
