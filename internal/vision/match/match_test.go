package match

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/edge-mar/scatter/internal/vision/sift"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIdentityApply(t *testing.T) {
	h := Identity()
	p := h.Apply(Point{3, -7})
	if p.X != 3 || p.Y != -7 {
		t.Errorf("identity moved point to %+v", p)
	}
}

func TestApplyTranslation(t *testing.T) {
	h := Homography{1, 0, 5, 0, 1, -2, 0, 0, 1}
	p := h.Apply(Point{1, 1})
	if p.X != 6 || p.Y != -1 {
		t.Errorf("translation result %+v, want (6, -1)", p)
	}
}

func TestApplyDegenerateW(t *testing.T) {
	h := Homography{1, 0, 0, 0, 1, 0, 1, 0, 0} // w = x
	p := h.Apply(Point{0, 5})
	if !math.IsNaN(p.X) || !math.IsNaN(p.Y) {
		t.Errorf("point at infinity mapped to %+v, want NaN", p)
	}
}

func TestMulComposition(t *testing.T) {
	shift := Homography{1, 0, 2, 0, 1, 3, 0, 0, 1}
	scale := Homography{2, 0, 0, 0, 2, 0, 0, 0, 1}
	// scale∘shift: first shift, then scale.
	comp := scale.Mul(&shift)
	p := comp.Apply(Point{1, 1})
	if !almostEqual(p.X, 6, 1e-12) || !almostEqual(p.Y, 8, 1e-12) {
		t.Errorf("composition result %+v, want (6, 8)", p)
	}
}

// knownH returns a well-conditioned projective transform used in tests.
func knownH() Homography {
	return Homography{
		1.2, 0.1, 15,
		-0.08, 0.95, -7,
		0.0004, -0.0002, 1,
	}
}

func applyAll(h *Homography, pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = h.Apply(p)
	}
	return out
}

func gridPoints(n int, w, h float64, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	return pts
}

func TestHomographyFromPairsExact(t *testing.T) {
	truth := knownH()
	src := []Point{{0, 0}, {100, 0}, {100, 80}, {0, 80}, {50, 40}, {20, 60}}
	dst := applyAll(&truth, src)
	h, err := homographyFromPairs(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{10, 10}, {90, 70}, {33, 5}} {
		want := truth.Apply(p)
		got := h.Apply(p)
		if !almostEqual(got.X, want.X, 1e-6) || !almostEqual(got.Y, want.Y, 1e-6) {
			t.Errorf("recovered H maps %+v to %+v, want %+v", p, got, want)
		}
	}
}

func TestHomographyFromPairsDegenerate(t *testing.T) {
	// Collinear points cannot determine a homography.
	src := []Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	dst := []Point{{0, 0}, {2, 2}, {4, 4}, {6, 6}}
	if _, err := homographyFromPairs(src, dst); !errors.Is(err, ErrDegenerate) {
		t.Errorf("collinear points err = %v, want ErrDegenerate", err)
	}
	if _, err := homographyFromPairs(src[:3], dst[:3]); !errors.Is(err, ErrDegenerate) {
		t.Errorf("3 points err = %v, want ErrDegenerate", err)
	}
}

// Regression test: non-finite input coordinates (a point mapped to the
// plane at infinity upstream) used to sail through solveLinear — NaN
// defeats the `pivot < eps` singularity check — and come back as a NaN
// homography that RANSAC would happily score.
func TestHomographyFromPairsNaNInput(t *testing.T) {
	src := []Point{{0, 0}, {100, 0}, {100, 80}, {0, 80}}
	dst := []Point{{0, 0}, {100, 0}, {math.NaN(), math.NaN()}, {0, 80}}
	if _, err := homographyFromPairs(src, dst); !errors.Is(err, ErrDegenerate) {
		t.Errorf("NaN input err = %v, want ErrDegenerate", err)
	}
	inf := []Point{{0, 0}, {100, 0}, {math.Inf(1), 80}, {0, 80}}
	if _, err := homographyFromPairs(inf, src); !errors.Is(err, ErrDegenerate) {
		t.Errorf("Inf input err = %v, want ErrDegenerate", err)
	}
}

// Regression test: three-of-four collinear points leave the DLT system
// rank-deficient; the estimate must be reported degenerate (or at minimum
// finite), never a silent NaN/Inf model.
func TestHomographyFromPairsNearCollinear(t *testing.T) {
	src := []Point{{0, 0}, {50, 50}, {100, 100}, {0, 80}}
	dst := []Point{{0, 0}, {55, 55}, {110, 110}, {0, 90}}
	h, err := homographyFromPairs(src, dst)
	if err == nil && !h.isFinite() {
		t.Fatalf("near-collinear estimate returned non-finite H = %+v with nil error", h)
	}
	// Exactly repeated points are rank-deficient outright.
	rep := []Point{{0, 0}, {0, 0}, {100, 100}, {0, 80}}
	if _, err := homographyFromPairs(rep, rep); !errors.Is(err, ErrDegenerate) {
		t.Errorf("repeated-point err = %v, want ErrDegenerate", err)
	}
}

// RANSAC must skip degenerate/non-finite minimal samples and still recover
// the model from the clean correspondences.
func TestRANSACSkipsNaNCorrespondences(t *testing.T) {
	truth := knownH()
	rng := rand.New(rand.NewSource(35))
	src := gridPoints(60, 640, 480, rng)
	dst := applyAll(&truth, src)
	for i := 0; i < 10; i++ {
		dst[i] = Point{math.NaN(), math.NaN()}
	}
	res, err := EstimateHomographyRANSAC(src, dst, RANSACConfig{Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	if !res.H.isFinite() {
		t.Fatalf("RANSAC returned non-finite H = %+v", res.H)
	}
	for _, idx := range res.Inliers {
		if idx < 10 {
			t.Errorf("NaN correspondence %d accepted as inlier", idx)
		}
	}
	for _, p := range []Point{{100, 100}, {500, 400}} {
		want := truth.Apply(p)
		got := res.H.Apply(p)
		if math.Hypot(got.X-want.X, got.Y-want.Y) > 1.0 {
			t.Errorf("H maps %+v to %+v, want %+v", p, got, want)
		}
	}
}

func TestRANSACWithOutliers(t *testing.T) {
	truth := knownH()
	rng := rand.New(rand.NewSource(31))
	src := gridPoints(100, 640, 480, rng)
	dst := applyAll(&truth, src)
	// Corrupt 30% with gross outliers.
	nOut := 30
	for i := 0; i < nOut; i++ {
		dst[i].X += 50 + rng.Float64()*200
		dst[i].Y -= 50 + rng.Float64()*200
	}
	res, err := EstimateHomographyRANSAC(src, dst, RANSACConfig{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if res.InlierFrac < 0.65 {
		t.Errorf("inlier fraction = %v, want >= 0.65", res.InlierFrac)
	}
	// Inliers must exclude the corrupted indices (mostly).
	corrupted := 0
	for _, idx := range res.Inliers {
		if idx < nOut {
			corrupted++
		}
	}
	if corrupted > 2 {
		t.Errorf("%d corrupted correspondences accepted as inliers", corrupted)
	}
	// Recovered transform must be close to truth on clean points.
	for _, p := range []Point{{100, 100}, {500, 400}} {
		want := truth.Apply(p)
		got := res.H.Apply(p)
		if math.Hypot(got.X-want.X, got.Y-want.Y) > 1.0 {
			t.Errorf("RANSAC H maps %+v to %+v, want %+v", p, got, want)
		}
	}
}

func TestRANSACAllOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	src := gridPoints(40, 640, 480, rng)
	dst := gridPoints(40, 640, 480, rng) // unrelated
	_, err := EstimateHomographyRANSAC(src, dst, RANSACConfig{Seed: 32, MinInliers: 12})
	if !errors.Is(err, ErrDegenerate) {
		t.Errorf("unrelated point sets err = %v, want ErrDegenerate", err)
	}
}

func TestRANSACTooFewPoints(t *testing.T) {
	src := []Point{{0, 0}, {1, 0}, {0, 1}}
	if _, err := EstimateHomographyRANSAC(src, src, RANSACConfig{}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("3 points err = %v, want ErrDegenerate", err)
	}
}

func TestRANSACDeterministic(t *testing.T) {
	truth := knownH()
	rng := rand.New(rand.NewSource(33))
	src := gridPoints(60, 640, 480, rng)
	dst := applyAll(&truth, src)
	for i := 0; i < 10; i++ {
		dst[i].X += 120
	}
	r1, err1 := EstimateHomographyRANSAC(src, dst, RANSACConfig{Seed: 5})
	r2, err2 := EstimateHomographyRANSAC(src, dst, RANSACConfig{Seed: 5})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.H != r2.H || len(r1.Inliers) != len(r2.Inliers) {
		t.Error("same seed produced different RANSAC results")
	}
}

func TestRatioTest(t *testing.T) {
	mkFeat := func(vals ...float32) sift.Feature {
		var f sift.Feature
		copy(f.Desc[:], vals)
		// Normalize.
		var n float64
		for _, v := range f.Desc {
			n += float64(v) * float64(v)
		}
		if n > 0 {
			n = math.Sqrt(n)
			for i := range f.Desc {
				f.Desc[i] = float32(float64(f.Desc[i]) / n)
			}
		}
		return f
	}
	train := []sift.Feature{
		mkFeat(1, 0, 0),
		mkFeat(0, 1, 0),
		mkFeat(0, 0, 1),
	}
	// Query near train[0]: unambiguous, should match.
	query := []sift.Feature{mkFeat(0.98, 0.1, 0)}
	matches := RatioTest(query, train, 0.8)
	if len(matches) != 1 || matches[0].TrainIdx != 0 {
		t.Fatalf("unambiguous query matches = %+v", matches)
	}
	// Ambiguous query equidistant to two train features: ratio test must
	// reject it.
	query = []sift.Feature{mkFeat(0.7071, 0.7071, 0)}
	if matches := RatioTest(query, train, 0.8); len(matches) != 0 {
		t.Errorf("ambiguous query produced matches %+v", matches)
	}
}

func TestRatioTestEmpty(t *testing.T) {
	if m := RatioTest(nil, nil, 0.8); len(m) != 0 {
		t.Errorf("empty inputs produced %+v", m)
	}
}

// Regression test: degenerate train sets (<2 features, or duplicate
// descriptors tying the two nearest neighbours) have no meaningful
// second-nearest distance. The old code admitted such matches — with one
// train feature every query "matched" it unconditionally.
func TestRatioTestDegenerateTrainSets(t *testing.T) {
	unit := func(axis int) sift.Feature {
		var f sift.Feature
		f.Desc[axis] = 1
		return f
	}
	query := []sift.Feature{unit(0), unit(1)}
	cases := []struct {
		name  string
		train []sift.Feature
		want  int
	}{
		{"empty train", nil, 0},
		{"single train feature", []sift.Feature{unit(0)}, 0},
		{"duplicate train descriptors", []sift.Feature{unit(0), unit(0)}, 0},
		// Only query unit(0) matches: unit(1) is equidistant from both
		// train features and is rightly rejected as ambiguous.
		{"two distinct train features", []sift.Feature{unit(0), unit(5)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := RatioTest(query, tc.train, 0.8)
			if len(got) != tc.want {
				t.Errorf("%s: %d matches, want %d (%+v)", tc.name, len(got), tc.want, got)
			}
		})
	}
}

// Parallel kernel contract: the row-parallel scan returns the same matches
// in the same (query) order as the serial scan.
func TestRatioTestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	mk := func(n int) []sift.Feature {
		out := make([]sift.Feature, n)
		for i := range out {
			var norm float64
			for j := range out[i].Desc {
				v := rng.Float64()
				out[i].Desc[j] = float32(v)
				norm += v * v
			}
			norm = math.Sqrt(norm)
			for j := range out[i].Desc {
				out[i].Desc[j] = float32(float64(out[i].Desc[j]) / norm)
			}
		}
		return out
	}
	query, train := mk(123), mk(97)
	want := ratioTest(query, train, 0.85, 1)
	for _, workers := range []int{2, 4, 8} {
		got := ratioTest(query, train, 0.85, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d matches, serial %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: match %d = %+v, serial %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestProjectBox(t *testing.T) {
	shift := Homography{1, 0, 10, 0, 1, 20, 0, 0, 1}
	box := ProjectBox(&shift, 100, 50)
	if box.MinX != 10 || box.MinY != 20 || box.MaxX != 110 || box.MaxY != 70 {
		t.Errorf("projected box = %+v", box)
	}
}

// Property: homographyFromPairs recovers random well-conditioned affine
// transforms from noiseless correspondences.
func TestHomographyRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := Homography{
			1 + rng.Float64()*0.5, rng.Float64() * 0.2, rng.Float64() * 100,
			rng.Float64() * 0.2, 1 + rng.Float64()*0.5, rng.Float64() * 100,
			0, 0, 1,
		}
		src := gridPoints(12, 640, 480, rng)
		dst := applyAll(&truth, src)
		h, err := homographyFromPairs(src, dst)
		if err != nil {
			return false
		}
		p := Point{rng.Float64() * 640, rng.Float64() * 480}
		want := truth.Apply(p)
		got := h.Apply(p)
		return math.Hypot(got.X-want.X, got.Y-want.Y) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// embed2x2 places a 2×2 system in the corner of the solver's fixed 8×8
// shape, the identity filling the rest.
func embed2x2(a [2][2]float64, b [2]float64) (*[8][8]float64, *[8]float64) {
	var m [8][8]float64
	var rhs [8]float64
	for i := range m {
		m[i][i] = 1
	}
	for i := range a {
		copy(m[i][:2], a[i][:])
		rhs[i] = b[i]
	}
	return &m, &rhs
}

func TestSolveLinearSingular(t *testing.T) {
	a, b := embed2x2([2][2]float64{{1, 2}, {2, 4}}, [2]float64{1, 2})
	if _, ok := solveLinear(a, b); ok {
		t.Error("singular system reported solvable")
	}
}

func TestSolveLinearKnown(t *testing.T) {
	a, b := embed2x2([2][2]float64{{2, 1}, {1, 3}}, [2]float64{5, 10})
	x, ok := solveLinear(a, b)
	if !ok {
		t.Fatal("solvable system reported singular")
	}
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("solution = %v, want [1 3 0 ...]", x)
	}
}

// BenchmarkRatioTest200x300 is the brute-force matching scaling row;
// compare with -cpu 1,4,8.
func BenchmarkRatioTest200x300(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	mk := func(n int) []sift.Feature {
		out := make([]sift.Feature, n)
		for i := range out {
			for j := range out[i].Desc {
				out[i].Desc[j] = rng.Float32()
			}
		}
		return out
	}
	query, train := mk(200), mk(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RatioTest(query, train, 0.8)
	}
}

func BenchmarkRANSAC100(b *testing.B) {
	truth := knownH()
	rng := rand.New(rand.NewSource(34))
	src := gridPoints(100, 640, 480, rng)
	dst := applyAll(&truth, src)
	for i := 0; i < 20; i++ {
		dst[i].X += 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateHomographyRANSAC(src, dst, RANSACConfig{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIoU(t *testing.T) {
	a := BoundingBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if got := IoU(a, a); math.Abs(got-1) > 1e-9 {
		t.Errorf("self IoU = %v", got)
	}
	b := BoundingBox{MinX: 5, MinY: 0, MaxX: 15, MaxY: 10}
	// Intersection 50, union 150.
	if got := IoU(a, b); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("half-overlap IoU = %v, want 1/3", got)
	}
	c := BoundingBox{MinX: 20, MinY: 20, MaxX: 30, MaxY: 30}
	if got := IoU(a, c); got != 0 {
		t.Errorf("disjoint IoU = %v", got)
	}
	deg := BoundingBox{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}
	if got := IoU(a, deg); got != 0 {
		t.Errorf("degenerate IoU = %v", got)
	}
}
