// Package match implements scAtteR's matching service substrate: nearest-
// neighbour descriptor matching with Lowe's ratio test, robust planar pose
// estimation via RANSAC over homographies, and cross-frame object tracking.
package match

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/edge-mar/scatter/internal/vision/parallel"
	"github.com/edge-mar/scatter/internal/vision/sift"
	"github.com/edge-mar/scatter/internal/vision/simd"
)

// Match pairs a query feature index with a train (reference) feature index.
type Match struct {
	QueryIdx int
	TrainIdx int
	Dist     float64
}

// ratioGrain is the query-row granularity of the parallel brute-force
// scan; fixed so chunk boundaries never depend on the worker count.
const ratioGrain = 16

// RatioTest matches each query descriptor to its nearest train descriptor,
// keeping only matches whose nearest distance is below ratio × the
// second-nearest distance (Lowe's ratio test). A typical ratio is 0.8.
// The O(|query|×|train|) scan is row-parallel over query features; matches
// are returned in query order, identical to the serial scan.
func RatioTest(query, train []sift.Feature, ratio float64) []Match {
	return ratioTest(query, train, ratio, 0)
}

// ratioTest is RatioTest with an explicit worker count (0 = GOMAXPROCS,
// 1 = serial) — the knob the parallel-vs-serial equivalence tests use.
func ratioTest(query, train []sift.Feature, ratio float64, workers int) []Match {
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
		out := make([]Match, 0, end-start)
		for qi := start; qi < end; qi++ {
			// Deferred sqrt: best/second are tracked as squared L2 — sqrt
			// is monotone, so the selection picks the same pair — and only
			// the two survivors are sqrt'd, turning |train| sqrts per query
			// feature into two. The emitted Dist and the ratio comparison
			// use the sqrt'd values, so output matches a per-pair-L2 scan.
			best, second, bestIdx := nearestTwo(&query[qi].Desc, train)
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
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	if total == 0 {
		return nil
	}
	out := make([]Match, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// nearestTwo returns the smallest and second-smallest squared L2 distance
// from q to the train descriptors and the index of the nearest (-1 when
// no distance is below +Inf). It takes sixteen train rows per simd.SqDist16
// call, then four per pass over q with four accumulators, then one; every
// form sums a row in sift.L2Sq's order and offers its distances to the
// selection in train order — the distances and the choice are those of one
// sift.L2Sq call per row.
func nearestTwo(q *sift.Descriptor, train []sift.Feature) (best, second float64, bestIdx int) {
	best, second, bestIdx = math.Inf(1), math.Inf(1), -1
	offer := func(d float64, ti int) {
		if d < best {
			second = best
			best = d
			bestIdx = ti
		} else if d < second {
			second = d
		}
	}
	ti := 0
	for ; ti+16 <= len(train); ti += 16 {
		var rows [16]*float32
		var dists [16]float64
		for r := range rows {
			rows[r] = &train[ti+r].Desc[0]
		}
		simd.SqDist16(&dists, q[:], &rows)
		for r, d := range dists {
			offer(d, ti+r)
		}
	}
	for ; ti+4 <= len(train); ti += 4 {
		t0, t1, t2, t3 := &train[ti].Desc, &train[ti+1].Desc, &train[ti+2].Desc, &train[ti+3].Desc
		var d0, d1, d2, d3 float64
		for i, v := range q {
			e0 := float64(v - t0[i])
			e1 := float64(v - t1[i])
			e2 := float64(v - t2[i])
			e3 := float64(v - t3[i])
			d0 += e0 * e0
			d1 += e1 * e1
			d2 += e2 * e2
			d3 += e3 * e3
		}
		offer(d0, ti)
		offer(d1, ti+1)
		offer(d2, ti+2)
		offer(d3, ti+3)
	}
	for ; ti < len(train); ti++ {
		offer(sift.L2Sq(q, &train[ti].Desc), ti)
	}
	return best, second, bestIdx
}

// Point is a 2-D image point.
type Point struct {
	X, Y float64
}

// Homography is a 3×3 planar projective transform in row-major order,
// normalized so that H[8] == 1 where possible.
type Homography [9]float64

// Identity returns the identity homography.
func Identity() Homography {
	return Homography{1, 0, 0, 0, 1, 0, 0, 0, 1}
}

// Apply maps a point through the homography. Points mapped to the plane at
// infinity (w ≈ 0) return NaN coordinates.
func (h *Homography) Apply(p Point) Point {
	w := h[6]*p.X + h[7]*p.Y + h[8]
	if math.Abs(w) < 1e-12 {
		return Point{math.NaN(), math.NaN()}
	}
	return Point{
		X: (h[0]*p.X + h[1]*p.Y + h[2]) / w,
		Y: (h[3]*p.X + h[4]*p.Y + h[5]) / w,
	}
}

// Mul returns the composition h∘g (apply g first, then h).
func (h *Homography) Mul(g *Homography) Homography {
	var out Homography
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += h[3*r+k] * g[3*k+c]
			}
			out[3*r+c] = s
		}
	}
	out.normalize()
	return out
}

func (h *Homography) normalize() {
	if math.Abs(h[8]) > 1e-12 {
		inv := 1 / h[8]
		for i := range h {
			h[i] *= inv
		}
	}
}

// ErrDegenerate is returned when a homography cannot be estimated from the
// given correspondences (collinear points, insufficient count, or a
// singular system).
var ErrDegenerate = errors.New("match: degenerate correspondence set")

// solveLinear solves the 8×8 system a·x = b by Gaussian elimination with
// partial pivoting, overwriting a and b. It reports false if the system is
// singular.
func solveLinear(a *[8][8]float64, b *[8]float64) (x [8]float64, ok bool) {
	const n = 8
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
			return x, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate.
		prow := &a[col]
		for r := col + 1; r < n; r++ {
			row := &a[r]
			f := row[col] / prow[col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				row[c] -= f * prow[c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}

// homographyFromPairs estimates H mapping src[i] -> dst[i] by solving the
// DLT linear system with h22 fixed to 1. It requires >= 4 pairs; with more
// than 4 it solves the least-squares normal equations. The system lives in
// fixed arrays on the stack and the points are normalized as they are
// read, so a call allocates nothing.
func homographyFromPairs(src, dst []Point) (Homography, error) {
	n := len(src)
	if n < 4 || len(dst) != n {
		return Identity(), fmt.Errorf("%w: %d pairs", ErrDegenerate, n)
	}
	// Normalize points for conditioning (Hartley normalization).
	nSrc := normalizePoints(src)
	nDst := normalizePoints(dst)

	// Build the 2n×8 design matrix rows; solve least squares via normal
	// equations AtA x = Atb (8×8).
	var ata [8][8]float64
	var atb [8]float64
	addRow := func(row *[8]float64, rhs float64) {
		for i, ri := range row {
			if ri == 0 {
				continue
			}
			for j, rj := range row {
				ata[i][j] += ri * rj
			}
			atb[i] += ri * rhs
		}
	}
	for i := 0; i < n; i++ {
		p, q := nSrc.apply(src[i]), nDst.apply(dst[i])
		x, y := p.X, p.Y
		u, v := q.X, q.Y
		addRow(&[8]float64{x, y, 1, 0, 0, 0, -u * x, -u * y}, u)
		addRow(&[8]float64{0, 0, 0, x, y, 1, -v * x, -v * y}, v)
	}
	sol, ok := solveLinear(&ata, &atb)
	if !ok {
		return Identity(), ErrDegenerate
	}
	hn := Homography{sol[0], sol[1], sol[2], sol[3], sol[4], sol[5], sol[6], sol[7], 1}
	// Denormalize: H = tDst^-1 · Hn · tSrc.
	tSrc, tDst := nSrc.transform(), nDst.transform()
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

// isFinite reports whether every entry of the homography is a finite
// number.
func (h *Homography) isFinite() bool {
	for _, v := range h {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// normalization is the Hartley similarity of a point set: translate the
// centroid (cx, cy) to the origin, then scale.
type normalization struct {
	cx, cy, scale float64
}

// normalizePoints returns the similarity that moves pts to zero centroid
// and mean distance sqrt(2) from it (Hartley).
func normalizePoints(pts []Point) normalization {
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
	return normalization{cx: cx, cy: cy, scale: scale}
}

func (t normalization) apply(p Point) Point {
	return Point{X: (p.X - t.cx) * t.scale, Y: (p.Y - t.cy) * t.scale}
}

// transform returns the similarity as a homography T with T(p) = apply(p).
func (t normalization) transform() Homography {
	return Homography{t.scale, 0, -t.scale * t.cx, 0, t.scale, -t.scale * t.cy, 0, 0, 1}
}

// invertAffine inverts a similarity/affine homography (bottom row 0 0 1).
func (h *Homography) invertAffine() (Homography, error) {
	a, b, c := h[0], h[1], h[2]
	d, e, f := h[3], h[4], h[5]
	det := a*e - b*d
	if math.Abs(det) < 1e-15 {
		return Identity(), ErrDegenerate
	}
	inv := 1 / det
	return Homography{
		e * inv, -b * inv, (b*f - c*e) * inv,
		-d * inv, a * inv, (c*d - a*f) * inv,
		0, 0, 1,
	}, nil
}

// RANSACResult is the outcome of robust homography estimation.
type RANSACResult struct {
	H          Homography
	Inliers    []int // indices into the correspondence arrays
	InlierFrac float64
}

// RANSACConfig controls EstimateHomographyRANSAC.
type RANSACConfig struct {
	Iterations int     // default 500
	Threshold  float64 // inlier reprojection threshold in pixels (default 3)
	Seed       int64   // default 1
	MinInliers int     // minimum inliers to accept (default 8)
}

// EstimateHomographyRANSAC robustly fits a homography src -> dst. It
// returns ErrDegenerate when no model reaches MinInliers.
func EstimateHomographyRANSAC(src, dst []Point, cfg RANSACConfig) (*RANSACResult, error) {
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

	// Two inlier buffers: the running best and the one being filled,
	// exchanged when an iteration beats the best.
	bestInliers := make([]int, 0, n)
	inliers := make([]int, 0, n)
	var sample [4]int
	var s4, d4 [4]Point
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
		h, err := homographyFromPairs(s4[:], d4[:])
		if err != nil {
			continue
		}
		inliers = inliers[:0]
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
			bestInliers, inliers = inliers, bestInliers
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
	h, err := homographyFromPairs(srcIn, dstIn)
	if err != nil {
		return nil, err
	}
	return &RANSACResult{
		H:          h,
		Inliers:    bestInliers,
		InlierFrac: float64(len(bestInliers)) / float64(n),
	}, nil
}

// BoundingBox is an axis-aligned box in image coordinates.
type BoundingBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// IoU returns the intersection-over-union of two axis-aligned boxes,
// zero when they do not overlap or either is degenerate.
func IoU(a, b BoundingBox) float64 {
	ix := math.Min(a.MaxX, b.MaxX) - math.Max(a.MinX, b.MinX)
	iy := math.Min(a.MaxY, b.MaxY) - math.Max(a.MinY, b.MinY)
	if ix <= 0 || iy <= 0 {
		return 0
	}
	inter := ix * iy
	areaA := (a.MaxX - a.MinX) * (a.MaxY - a.MinY)
	areaB := (b.MaxX - b.MinX) * (b.MaxY - b.MinY)
	if areaA <= 0 || areaB <= 0 {
		return 0
	}
	return inter / (areaA + areaB - inter)
}

// ProjectBox maps the four corners of a reference-image box through a
// homography and returns the axis-aligned bounding box of the result —
// the box scAtteR draws over a recognized object.
func ProjectBox(h *Homography, refW, refH float64) BoundingBox {
	corners := [4]Point{{0, 0}, {refW, 0}, {refW, refH}, {0, refH}}
	box := BoundingBox{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, c := range corners {
		p := h.Apply(c)
		if math.IsNaN(p.X) {
			continue
		}
		box.MinX = math.Min(box.MinX, p.X)
		box.MinY = math.Min(box.MinY, p.Y)
		box.MaxX = math.Max(box.MaxX, p.X)
		box.MaxY = math.Max(box.MaxY, p.Y)
	}
	return box
}
