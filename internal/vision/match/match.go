// Package match implements scAtteR's matching service substrate: nearest-
// neighbour descriptor matching with Lowe's ratio test, robust planar pose
// estimation via RANSAC over homographies, and cross-frame object tracking.
package match

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

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
// no distance is below +Inf): what one pass offering every row's exact
// distance (simd.SqDist16's sum, the single-row loop's bits) to the
// selection in train order returns, ties to the lowest index. It gets
// there in two passes (DESIGN §5g, "The ratio test's float32 screen").
// The first screens sixteen rows per simd.SqDistScreen16 call and keeps
// the two smallest screened values s1 ≤ s2 so far; a row whose screen
// exceeds screenLimit(s2) has an exact distance strictly above the exact
// second-best, so dropping it changes neither the minimum, its first
// index, nor the second-smallest. The second pass ranks the rows left —
// candidates in train order, sixteen per padded simd.SqDist16 call — as
// the one-pass scan did. Candidates wait in a 32-row buffer that each
// block first prunes against the tightened limit; a full one ranks its
// oldest sixteen. A screened NaN or infinity (a non-finite row or query,
// or a float32 sum past MaxFloat32) bounds nothing, so then every row is
// ranked exactly.
func nearestTwo(q *sift.Descriptor, train []sift.Feature) (best, second float64, bestIdx int) {
	sel := nearest{best: math.Inf(1), second: math.Inf(1), idx: -1}
	s1, s2 := float32(math.Inf(1)), float32(math.Inf(1))
	var cand [32]int32
	var candS [32]float32
	nc := 0
	for ti := 0; ti < len(train); ti += 16 {
		n := min(16, len(train)-ti)
		var rows [16]*float32
		for r := range rows {
			rows[r] = &train[ti+min(r, n-1)].Desc[0]
		}
		var screen [16]float32
		simd.SqDistScreen16(&screen, q[:], &rows)
		for _, s := range screen[:n] {
			if !(s <= math.MaxFloat32) {
				return nearestTwoExact(q, train)
			}
			if s < s1 {
				s1, s2 = s, s1
			} else if s < s2 {
				s2 = s
			}
		}
		limit := screenLimit(s2)
		nc = prune(cand[:nc], candS[:nc], limit)
		for r, s := range screen[:n] {
			if float64(s) <= limit {
				cand[nc], candS[nc] = int32(ti+r), s
				nc++
			}
		}
		if nc >= 16 {
			sel.rank(q, train, cand[:16])
			nc = copy(cand[:], cand[16:nc])
			copy(candS[:], candS[16:16+nc])
		}
	}
	if nc > 0 {
		sel.rank(q, train, cand[:nc])
	}
	return sel.best, sel.second, sel.idx
}

// The screen's error bound, for 128-dimensional descriptors. Let T be
// the real sum of the squares e_i² of a row's float32 differences. Its
// exact distance D rounds only SqDist16's 128 float64 adds (a float32
// squared is exact in float64), so |D − T| ≤ γ₁₂₈T with u = 2⁻⁵³. Its
// screened value S rounds each term at most 13 times in float32 (u =
// 2⁻²⁴): the square, eight adds in its lane, the lane pair and the
// three-level fold — fewer where the compiler fuses a multiply and add
// — and a square below 2⁻¹²⁶ is off by up to 2⁻¹⁵⁰ on the subnormal
// grid, so |S − T| ≤ γ₁₃T + 2⁻¹⁴², γ₁₃ < 7.8·10⁻⁷. The two rows
// screened s1 and s2 are distinct, so the exact second-best is at most
// the larger of their exact distances, at most (s2 + 2⁻¹⁴²)(1+γ₁₂₈)/(1−γ₁₃);
// a row screened S has D ≥ (S − 2⁻¹⁴²)(1−γ₁₂₈)/(1+γ₁₃). The second
// exceeds the first whenever S > s2·(1 + 2.1γ₁₃) + 2⁻¹⁴⁰; screenRel and
// screenAbs are nine and sixteen times those slacks, which also covers
// the float64 rounding of the limit itself.
const (
	screenRel = 0x1p-16
	screenAbs = 0x1p-136
)

// screenLimit is the largest screened value a row may have and still be
// best or second when s2 is the second-smallest screened value; +Inf
// while fewer than two rows are screened. It is computed in float64, so
// no finite s2 overflows it.
func screenLimit(s2 float32) float64 {
	return float64(s2)*(1+screenRel) + screenAbs
}

// prune keeps, in order, the candidates whose screened value is within
// limit and returns how many.
func prune(cand []int32, candS []float32, limit float64) int {
	k := 0
	for i, s := range candS {
		if float64(s) <= limit {
			cand[k], candS[k] = cand[i], s
			k++
		}
	}
	return k
}

// nearestTwoExact is nearestTwo with every row ranked exactly.
func nearestTwoExact(q *sift.Descriptor, train []sift.Feature) (best, second float64, bestIdx int) {
	sel := nearest{best: math.Inf(1), second: math.Inf(1), idx: -1}
	var idx [16]int32
	for ti := 0; ti < len(train); ti += 16 {
		n := min(16, len(train)-ti)
		for r := range idx[:n] {
			idx[r] = int32(ti + r)
		}
		sel.rank(q, train, idx[:n])
	}
	return sel.best, sel.second, sel.idx
}

// nearest is the selection of the one-pass scan: the smallest and
// second-smallest distance offered and the first index offered the
// smallest.
type nearest struct {
	best, second float64
	idx          int
}

// rank offers the exact distances from q to train rows idx, 1 to 16 of
// them in ascending order, to the selection: one simd.SqDist16 call
// whose spare lanes point at the last row and are not offered.
func (n *nearest) rank(q *sift.Descriptor, train []sift.Feature, idx []int32) {
	var rows [16]*float32
	for r := range rows {
		rows[r] = &train[idx[min(r, len(idx)-1)]].Desc[0]
	}
	var dists [16]float64
	simd.SqDist16(&dists, q[:], &rows)
	for r, d := range dists[:len(idx)] {
		if d < n.best {
			n.second = n.best
			n.best = d
			n.idx = int(idx[r])
		} else if d < n.second {
			n.second = d
		}
	}
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
// singular. A pivot swap exchanges row pointers, not rows, so on return
// a's rows are reduced but not in pivot order.
func solveLinear(a *[8][8]float64, b *[8]float64) (x [8]float64, ok bool) {
	const n = 8
	var rows [n]*[n]float64
	for i := range rows {
		rows[i] = &a[i]
	}
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		maxAbs := math.Abs(rows[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(rows[r][col]); v > maxAbs {
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
		rows[col], rows[pivot] = rows[pivot], rows[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate.
		prow := rows[col]
		for r := col + 1; r < n; r++ {
			row := rows[r]
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
		row := rows[r]
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= row[c] * x[c]
		}
		x[r] = s / row[r]
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

	// Solve least squares via the normal equations AᵀA·h = Aᵀb (8×8) of
	// the 2n×8 design matrix, whose rows per point are
	//
	//	[x y 1 0 0 0 -ux -uy] = u
	//	[0 0 0 x y 1 -vx -vy] = v
	//
	// built straight-line: the 21 distinct products of AᵀA's upper
	// triangle and the 8 of Aᵀb, each summed over the points in order,
	// the first row's product before the second's. The 3–5 block repeats
	// the 0–2 block (same products in the same order), the lower
	// triangle mirrors the upper (multiplication commutes), and the
	// products left out are the ±0 ones a row's structural zeros make:
	// adding ±0 to a sum that starts at +0 leaves its bits alone, and a
	// non-finite coordinate ends in ErrDegenerate whatever the solve
	// does, because it makes that point set's normalization non-finite.
	var s00, s01, s02, s11, s12, s22 float64 // x, y, 1 by themselves
	var s06, s07, s16, s17, s26, s27 float64 // x, y, 1 by -ux, -uy
	var s36, s37, s46, s47, s56, s57 float64 // x, y, 1 by -vx, -vy
	var s66, s67, s77 float64
	var b0, b1, b2, b3, b4, b5, b6, b7 float64
	for i := 0; i < n; i++ {
		p, q := nSrc.apply(src[i]), nDst.apply(dst[i])
		x, y := p.X, p.Y
		u, v := q.X, q.Y
		ux, uy := -u*x, -u*y
		vx, vy := -v*x, -v*y
		s00 += x * x
		s01 += x * y
		s02 += x
		s11 += y * y
		s12 += y
		s22++
		s06 += x * ux
		s07 += x * uy
		s16 += y * ux
		s17 += y * uy
		s26 += ux
		s27 += uy
		s36 += x * vx
		s37 += x * vy
		s46 += y * vx
		s47 += y * vy
		s56 += vx
		s57 += vy
		s66 += ux * ux
		s66 += vx * vx
		s67 += ux * uy
		s67 += vx * vy
		s77 += uy * uy
		s77 += vy * vy
		b0 += x * u
		b1 += y * u
		b2 += u
		b3 += x * v
		b4 += y * v
		b5 += v
		b6 += ux * u
		b6 += vx * v
		b7 += uy * u
		b7 += vy * v
	}
	ata := [8][8]float64{
		{s00, s01, s02, 0, 0, 0, s06, s07},
		{s01, s11, s12, 0, 0, 0, s16, s17},
		{s02, s12, s22, 0, 0, 0, s26, s27},
		{0, 0, 0, s00, s01, s02, s36, s37},
		{0, 0, 0, s01, s11, s12, s46, s47},
		{0, 0, 0, s02, s12, s22, s56, s57},
		{s06, s16, s26, s36, s46, s56, s66, s67},
		{s07, s17, s27, s37, s47, s57, s67, s77},
	}
	atb := [8]float64{b0, b1, b2, b3, b4, b5, b6, b7}
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

// rngPool holds RANSAC's random sources. Seeding a pooled one replays the
// sequence rand.New(rand.NewSource(seed)) would, without allocating the
// source's ~4.9 KB of state on every call.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// ransacConfidence is the probability p with which RANSAC has drawn at
// least one all-inlier sample of its best model before it stops. DESIGN
// §5a ("Exact by default") records the sweep that chose it: the smallest
// p whose p95 worst-corner error on the accuracy contract's clips is no
// worse than that of 400 fixed iterations.
const ransacConfidence = 0.9999

// EstimateHomographyRANSAC robustly fits a homography src -> dst. It
// returns ErrDegenerate when no model reaches MinInliers.
//
// It stops adaptively: whenever the best model improves to an inlier
// fraction w, the iteration count it needs becomes log(1−p)/log(1−w⁴) for
// p = ransacConfidence, capped by cfg.Iterations. A model that explains
// every pair (w = 1) ends the search at once.
func EstimateHomographyRANSAC(src, dst []Point, cfg RANSACConfig) (*RANSACResult, error) {
	res, _, err := estimateRANSAC(src, dst, cfg)
	return res, err
}

// estimateRANSAC is EstimateHomographyRANSAC that also reports how many
// four-point samples it drew.
func estimateRANSAC(src, dst []Point, cfg RANSACConfig) (*RANSACResult, int, error) {
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
		return nil, 0, fmt.Errorf("%w: %d correspondences", ErrDegenerate, n)
	}
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(cfg.Seed)
	thresholdSq := cfg.Threshold * cfg.Threshold

	// Two inlier buffers: the running best and the one being filled,
	// exchanged when an iteration beats the best.
	bestInliers := make([]int, 0, n)
	inliers := make([]int, 0, n)
	var sample [4]int
	var s4, d4 [4]Point
	limit := cfg.Iterations
	it := 0
	for ; it < limit; it++ {
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
			if p := h.Apply(src[i]); !math.IsNaN(p.X) {
				dx := p.X - dst[i].X
				dy := p.Y - dst[i].Y
				if dx*dx+dy*dy <= thresholdSq {
					inliers = append(inliers, i)
					continue
				}
			}
			// Once even an inlier at every index left could not beat the
			// best, this model can no longer change anything.
			if len(inliers)+n-1-i <= len(bestInliers) {
				break
			}
		}
		if len(inliers) > len(bestInliers) {
			bestInliers, inliers = inliers, bestInliers
			limit = min(limit, ransacLimit(len(bestInliers), n))
		}
	}
	if len(bestInliers) < cfg.MinInliers {
		return nil, it, fmt.Errorf("%w: best model has %d inliers < %d",
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
		return nil, it, err
	}
	return &RANSACResult{
		H:          h,
		Inliers:    bestInliers,
		InlierFrac: float64(len(bestInliers)) / float64(n),
	}, it, nil
}

// ransacLimit is the number of samples after which, with probability
// ransacConfidence, at least one drawn sample held four inliers of a model
// with inliers of n pairs: ⌈log(1−p)/log(1−w⁴)⌉ for w = inliers/n, 0 when
// w = 1, and MaxInt when the count passes 2³¹ (no cap is that high).
func ransacLimit(inliers, n int) int {
	w := float64(inliers) / float64(n)
	k := math.Ceil(math.Log(1-ransacConfidence) / math.Log1p(-w*w*w*w))
	if !(k < math.MaxInt32) {
		return math.MaxInt
	}
	return int(k)
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
	box := BoundingBox{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, p := range ProjectCorners(h, refW, refH) {
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

// ProjectCorners maps the corners (0,0), (refW,0), (refW,refH), (0,refH)
// of a reference image through a homography, in that order.
func ProjectCorners(h *Homography, refW, refH float64) [4]Point {
	return [4]Point{
		h.Apply(Point{0, 0}), h.Apply(Point{refW, 0}),
		h.Apply(Point{refW, refH}), h.Apply(Point{0, refH}),
	}
}

// ConvexQuad reports whether the quadrilateral q[0] q[1] q[2] q[3] is
// finite and strictly convex: all four turns go the same way and none is
// straight. A rectangle seen through any plausible camera pose stays
// convex; a bow-tie, a fold or a collapsed side is a pose no plane
// produces in front of the camera.
func ConvexQuad(q [4]Point) bool {
	var left, right int
	for i, a := range q {
		if math.IsInf(a.X, 0) || math.IsInf(a.Y, 0) {
			return false
		}
		b, c := q[(i+1)%4], q[(i+2)%4]
		switch cross := (b.X-a.X)*(c.Y-b.Y) - (b.Y-a.Y)*(c.X-b.X); {
		case cross > 0:
			left++
		case cross < 0:
			right++
		default: // straight, or NaN
			return false
		}
	}
	return left == 4 || right == 4
}
