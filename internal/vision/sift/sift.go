// Package sift implements a scale-invariant feature transform (SIFT)
// detector and descriptor in pure Go, following Lowe's 2004 formulation:
// a Gaussian scale-space pyramid, difference-of-Gaussian (DoG) extrema
// detection with contrast and edge rejection, gradient-histogram
// orientation assignment, and 128-dimensional descriptors built from a
// 4×4 grid of 8-bin orientation histograms.
//
// This is the object-detection substrate behind scAtteR's sift service.
// The paper runs SIFT on GPUs; this implementation trades raw speed for
// portability and determinism but computes the same quantities, so the
// downstream encoding/LSH/matching stages operate on real descriptors.
package sift

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"github.com/edge-mar/scatter/internal/vision/imgproc"
	"github.com/edge-mar/scatter/internal/vision/parallel"
	"github.com/edge-mar/scatter/internal/vision/simd"
)

// DescriptorSize is the dimensionality of a SIFT descriptor:
// 4×4 spatial bins × 8 orientation bins.
const DescriptorSize = 128

// Descriptor is a 128-dimensional SIFT feature descriptor, L2-normalized
// with the standard 0.2 clamp-and-renormalize illumination correction.
type Descriptor [DescriptorSize]float32

// Keypoint locates a detected feature in the original image.
type Keypoint struct {
	X, Y        float64 // position in input-image coordinates
	Sigma       float64 // absolute scale
	Orientation float64 // dominant gradient orientation, radians in [-pi, pi]
	Response    float64 // |DoG| response; higher is stronger
	Octave      int
	Level       int
}

// Feature is a keypoint with its descriptor.
type Feature struct {
	Keypoint
	Desc Descriptor
}

// Config controls detection. The zero value is not valid; use Defaults and
// override fields as needed.
type Config struct {
	// Octaves is the number of pyramid octaves. If zero, it is derived
	// from the image size (down to a minimum dimension of 16 pixels).
	Octaves int
	// Levels is the number of scales sampled per octave (Lowe's "s").
	Levels int
	// SigmaBase is the blur of the first pyramid level.
	SigmaBase float64
	// ContrastThreshold rejects low-contrast extrema (applied to |DoG|).
	ContrastThreshold float64
	// EdgeThreshold rejects edge-like extrema via the principal-curvature
	// ratio test; Lowe suggests 10.
	EdgeThreshold float64
	// MaxFeatures caps the number of returned features, keeping the
	// strongest by response. Zero means no cap.
	MaxFeatures int
	// Workers bounds the worker pool for the DoG extrema scan and
	// per-keypoint descriptor computation. Zero uses GOMAXPROCS; one
	// forces the serial path. Output is bit-identical at any setting.
	Workers int
}

// Defaults returns the standard SIFT parameterization.
func Defaults() Config {
	return Config{
		Levels:            3,
		SigmaBase:         1.6,
		ContrastThreshold: 0.03,
		EdgeThreshold:     10,
		MaxFeatures:       0,
	}
}

// Detector detects SIFT features. A Detector is safe for concurrent use;
// it holds only immutable configuration and the tables derived from it.
type Detector struct {
	cfg Config
	// sigmas is the blur of each of the Levels+3 Gaussian levels within
	// an octave. kernels[0] takes the input to sigmas[0]; kernels[i] is
	// the incremental blur from level i-1 to level i.
	sigmas  []float64
	kernels [][]float32
	// oriWeight[l] is the Gaussian window of the orientation histogram at
	// level l, indexed by the squared pixel distance dx²+dy² from the
	// keypoint. descWeight[l] is the descriptor's, laid out as the square
	// it covers, (dy+radius)·(2·radius+1) + dx+radius, so that one row of
	// it is one slice.
	oriWeight, descWeight [][]float64
}

// New returns a Detector for the given configuration, filling unset fields
// from Defaults.
func New(cfg Config) *Detector {
	c := Defaults()
	if cfg.Octaves > 0 {
		c.Octaves = cfg.Octaves
	}
	if cfg.Levels > 0 {
		c.Levels = cfg.Levels
	}
	if cfg.SigmaBase > 0 {
		c.SigmaBase = cfg.SigmaBase
	}
	if cfg.ContrastThreshold > 0 {
		c.ContrastThreshold = cfg.ContrastThreshold
	}
	if cfg.EdgeThreshold > 0 {
		c.EdgeThreshold = cfg.EdgeThreshold
	}
	if cfg.MaxFeatures > 0 {
		c.MaxFeatures = cfg.MaxFeatures
	}
	if cfg.Workers > 0 {
		c.Workers = cfg.Workers
	}
	d := &Detector{cfg: c}

	nLevels := c.Levels + 3
	k := math.Pow(2, 1/float64(c.Levels))
	d.sigmas = make([]float64, nLevels)
	d.sigmas[0] = c.SigmaBase
	for i := 1; i < nLevels; i++ {
		d.sigmas[i] = d.sigmas[0] * math.Pow(k, float64(i))
	}
	d.kernels = make([][]float32, nLevels)
	d.kernels[0] = imgproc.GaussianKernel(c.SigmaBase)
	for i := 1; i < nLevels; i++ {
		sPrev, sCur := d.sigmas[i-1], d.sigmas[i]
		d.kernels[i] = imgproc.GaussianKernel(math.Sqrt(sCur*sCur - sPrev*sPrev))
	}
	// Keypoints live on levels 1..Levels: the DoG levels with a neighbour
	// on both sides.
	d.oriWeight = make([][]float64, c.Levels+1)
	d.descWeight = make([][]float64, c.Levels+1)
	for l := 1; l <= c.Levels; l++ {
		sigma := d.sigmas[l]
		d.oriWeight[l] = gaussianWindow(orientationRadius(sigma), 1.5*sigma)
		radius := descriptorRadius(sigma)
		byDist := gaussianWindow(radius, descGrid*descBinWidth(sigma)/2)
		side := 2*radius + 1
		d.descWeight[l] = make([]float64, side*side)
		for i := range d.descWeight[l] {
			dy, dx := i/side-radius, i%side-radius
			d.descWeight[l][i] = byDist[dx*dx+dy*dy]
		}
	}
	return d
}

// gaussianWindow tabulates exp(-d²/(2w²)) for every squared distance d²
// that occurs in a (2·radius+1)² window.
func gaussianWindow(radius int, w float64) []float64 {
	inv := -1 / (2 * w * w)
	tab := make([]float64, 2*radius*radius+1)
	for d2 := range tab {
		tab[d2] = math.Exp(float64(d2) * inv)
	}
	return tab
}

// pyramid is what describe reads of an image's Gaussian scale space:
// gauss[octave][level] for levels 1..Levels, views into the slab scan
// allocated. Entry 0 of each octave is empty.
type pyramid struct {
	gauss [][]imgproc.Gray
}

// octaves returns how many octaves the pyramid of a w×h image has: the
// configured number, or as many as keep the smaller side at 16 pixels or
// more, but no octave after one narrower or shorter than 8 pixels, whose
// halving would be under 4.
func (d *Detector) octaves(w, h int) int {
	n := d.cfg.Octaves
	if n == 0 {
		for minDim := min(w, h); minDim >= 16; minDim /= 2 {
			n++
		}
		n = max(n, 1)
	}
	for o := 1; o < n; o++ {
		if w < 8 || h < 8 {
			return o
		}
		w, h = w/2, h/2
	}
	return n
}

// scan builds img's Gaussian pyramid and finds its DoG extrema, octave by
// octave: it blurs an octave's Levels+3 levels, scans them, and only then
// builds the next octave.
//
// Every level lives in one slab, the only pyramid allocation of the call.
// An octave's levels 1..Levels, which describe reads later, go at a bump
// pointer; behind them come its scratch — level 0, levels Levels+1 and
// Levels+2 — and the blur's horizontal-pass buffer. The next octave's
// kept levels start where this octave's scratch does, so they overwrite
// only what its scan is done with; its level 0, downsampled from this
// octave's level Levels, lands in that scratch too. The slab is sized
// up front to the furthest any octave reaches (7·W·H floats at 3 levels).
func (d *Detector) scan(img *imgproc.Gray) (*pyramid, []candidate) {
	nLevels := d.cfg.Levels + 3
	octaves := d.octaves(img.W, img.H)
	size, kept := 0, 0
	for o, w, h := 0, img.W, img.H; o < octaves; o, w, h = o+1, w/2, h/2 {
		size = max(size, kept+(nLevels+1)*w*h)
		kept += d.cfg.Levels * w * h
	}
	slab := make([]float32, size)

	p := &pyramid{gauss: make([][]imgproc.Gray, octaves)}
	var cands []candidate
	kept = 0
	for o, w, h := 0, img.W, img.H; o < octaves; o, w, h = o+1, w/2, h/2 {
		n := w * h
		view := func(at int) imgproc.Gray { return imgproc.Gray{W: w, H: h, Pix: slab[at:][:n]} }
		levels := make([]imgproc.Gray, nLevels)
		for l := 1; l <= d.cfg.Levels; l++ {
			levels[l] = view(kept + (l-1)*n)
		}
		scratch := kept + d.cfg.Levels*n
		levels[0] = view(scratch)
		levels[nLevels-2], levels[nLevels-1] = view(scratch+n), view(scratch+2*n)
		tmp := view(scratch + 3*n)
		if o == 0 {
			imgproc.BlurInto(&levels[0], &tmp, img, d.kernels[0], d.cfg.Workers)
		} else {
			imgproc.DownsampleInto(&levels[0], &p.gauss[o-1][d.cfg.Levels])
		}
		for l := 1; l < nLevels; l++ {
			// Levels chain sequentially, but each blur's convolution
			// passes fan rows out across the pool.
			imgproc.BlurInto(&levels[l], &tmp, &levels[l-1], d.kernels[l], d.cfg.Workers)
		}
		cands = d.scanOctave(cands, o, levels)
		levels[0] = imgproc.Gray{}
		p.gauss[o] = levels[:d.cfg.Levels+1]
		kept += d.cfg.Levels * n
	}
	return p, cands
}

// isExtremum reports whether interior pixel i of cur (row stride w) is a
// local extremum over its 26 neighbours in the DoG levels below, at and
// above it.
func isExtremum(below, cur, above []float32, w, i int) bool {
	v := cur[i]
	isMax := true
	isMin := true
	for l, img := range [3][]float32{below, cur, above} {
		for r := i - w; r <= i+w; r += w {
			for j := r - 1; j <= r+1; j++ {
				if l == 1 && j == i {
					continue
				}
				n := img[j]
				if n >= v {
					isMax = false
				}
				if n <= v {
					isMin = false
				}
				if !isMax && !isMin {
					return false
				}
			}
		}
	}
	return isMax || isMin
}

// edgeLike applies Lowe's principal-curvature ratio test using the 2×2
// Hessian of the DoG response at interior pixel i of img (row stride w).
// Returns true if the point lies on an edge.
func edgeLike(img []float32, w, i int, edgeThreshold float64) bool {
	dxx := float64(img[i+1] + img[i-1] - 2*img[i])
	dyy := float64(img[i+w] + img[i-w] - 2*img[i])
	dxy := float64(img[i+w+1]-img[i+w-1]-img[i-w+1]+img[i-w-1]) / 4
	tr := dxx + dyy
	det := dxx*dyy - dxy*dxy
	if det <= 0 {
		return true
	}
	r := edgeThreshold
	return tr*tr/det >= (r+1)*(r+1)/r
}

// candidate is a DoG extremum that survived the contrast and edge tests;
// orientation assignment and description happen in a second phase.
type candidate struct {
	octave, level, x, y int
	response            float64
}

// scanGrain is the row granularity of the extrema scan; describeGrain the
// keypoint granularity of descriptor computation. Both are fixed so chunk
// boundaries — and therefore output order — never depend on the worker
// count.
const (
	scanGrain     = 16
	describeGrain = 4
)

// bandPool holds the DoG bands of one scan chunk between chunks and
// between Detect calls. A chunk writes every band row it reads.
var bandPool sync.Pool

// scanOctave appends the DoG extrema of one octave's Gaussian levels to
// cands. No DoG image is stored: a chunk of scanGrain interior rows
// subtracts, for every DoG level, its rows and one halo row on each side
// into a band, and tests its rows of levels 1..Levels there. Candidates
// are collected per (level, chunk) and concatenated level by level, each
// level's chunks in order, so the result is the octave→level→row→column
// order of a scan over whole DoG images. simd.Extrema applies the
// contrast and extremum tests eight pixels at a time, its mask bits
// walked in x order; the fewer than eight pixels a row leaves over take
// the same tests one by one. On vector units a whole 320×180 scan is
// shorter than waking the second core (EXPERIMENTS.md, "Fourth
// purchase"), so, like the vector convolution passes, it runs on the
// caller; chunking is the same either way.
func (d *Detector) scanOctave(cands []candidate, o int, levels []imgproc.Gray) []candidate {
	cfg := d.cfg
	w, rows := levels[0].W, levels[0].H-2
	if rows <= 0 {
		return cands
	}
	workers := cfg.Workers
	if simd.Vector() {
		workers = 1
	}
	chunks := parallel.Chunks(rows, scanGrain)
	band := (scanGrain + 2) * w
	bands := (len(levels) - 1) * band
	parts := make([][]candidate, cfg.Levels*chunks)
	parallel.For(workers, rows, scanGrain, func(chunk, start, end int) {
		buf, _ := bandPool.Get().(*[]float32)
		if buf == nil || cap(*buf) < bands {
			b := make([]float32, bands)
			buf = &b
		}
		defer bandPool.Put(buf)
		// Band l holds DoG level l's image rows start..end+1; image pixel
		// (x, y) is band index (y-start)*w + x.
		m := (end - start + 2) * w
		dog := func(l int) []float32 { return (*buf)[l*band:][:m] }
		for l := range len(levels) - 1 {
			simd.Sub(dog(l), levels[l+1].Pix[start*w:][:m], levels[l].Pix[start*w:][:m])
		}
		for l := 1; l <= cfg.Levels; l++ {
			below, cur, above := dog(l-1), dog(l), dog(l+1)
			var out []candidate
			// keep appends extremum (x, y) unless it lies on an edge.
			keep := func(x, y int) {
				i := (y-start)*w + x
				if !edgeLike(cur, w, i, cfg.EdgeThreshold) {
					out = append(out, candidate{
						octave: o, level: l, x: x, y: y,
						response: math.Abs(float64(cur[i])),
					})
				}
			}
			var mask [64]uint8
			for y := start + 1; y < end+1; y++ {
				row := (y - start) * w
				x := 1
				for x+8 <= w-1 {
					mk := mask[:min((w-1-x)/8, len(mask))]
					at, n := row-w+x-1, 2*w+8*len(mk)+2
					simd.Extrema(mk, below[at:at+n], cur[at:at+n], above[at:at+n], w, cfg.ContrastThreshold)
					for k, set := range mk {
						for ; set != 0; set &= set - 1 {
							keep(x+8*k+bits.TrailingZeros8(set), y)
						}
					}
					x += 8 * len(mk)
				}
				for ; x < w-1; x++ {
					i := row + x
					if math.Abs(float64(cur[i])) < cfg.ContrastThreshold || !isExtremum(below, cur, above, w, i) {
						continue
					}
					keep(x, y)
				}
			}
			parts[(l-1)*chunks+chunk] = out
		}
	})
	for _, part := range parts {
		cands = append(cands, part...)
	}
	return cands
}

// gradPatch is the gradient field around one candidate: magnitude and
// orientation of every pixel within radius of the keypoint, computed once
// and read by the orientation histogram and by the descriptor of every
// orientation the histogram yields. Pixel (x+dx, y+dy) is entry
// (dy+radius)*(2*radius+1) + dx+radius. Pixels without a central
// difference (outside the image interior) have magnitude 0, which both
// readers skip.
type gradPatch struct {
	radius     int
	mag, theta []float64
	// colCos and colSin are computeDescriptor's per-column rotation
	// products, rewritten for every descriptor.
	colCos, colSin []float64
}

var patchPool = sync.Pool{New: func() any { return new(gradPatch) }}

// fill computes the patch of the given radius around (x, y).
func (pt *gradPatch) fill(img *imgproc.Gray, x, y, radius int) {
	side := 2*radius + 1
	if cap(pt.mag) < side*side {
		pt.mag = make([]float64, side*side)
		pt.theta = make([]float64, side*side)
	}
	pt.radius = radius
	pt.mag, pt.theta = pt.mag[:side*side], pt.theta[:side*side]
	w := img.W
	left := x - radius
	lo, hi := max(left, 1), min(x+radius, w-2)
	for dy := -radius; dy <= radius; dy++ {
		mag := pt.mag[(dy+radius)*side:][:side]
		theta := pt.theta[(dy+radius)*side:][:side]
		py := y + dy
		if py < 1 || py >= img.H-1 || lo > hi {
			clear(mag)
			continue
		}
		clear(mag[:lo-left])
		clear(mag[hi-left+1:])
		up, cur, down := img.Pix[(py-1)*w:][:w], img.Pix[py*w:][:w], img.Pix[(py+1)*w:][:w]
		simd.Grad(mag[lo-left:hi-left+1], theta[lo-left:hi-left+1], up[lo:hi+1], cur[lo-1:hi+2], down[lo:hi+1])
	}
}

// describe assigns orientations and computes descriptors for each
// candidate. Candidates are independent, so the pool fans them out with
// each worker writing a disjoint result slot; flattening in candidate
// order preserves the serial ordering.
func (d *Detector) describe(p *pyramid, cands []candidate) []Feature {
	perCand := make([][]Feature, len(cands))
	parallel.For(d.cfg.Workers, len(cands), describeGrain, func(_, start, end int) {
		pt := patchPool.Get().(*gradPatch)
		defer patchPool.Put(pt)
		for i := start; i < end; i++ {
			c := cands[i]
			sigma := d.sigmas[c.level]
			scale := float64(int(1) << uint(c.octave))
			pt.fill(&p.gauss[c.octave][c.level], c.x, c.y, max(orientationRadius(sigma), descriptorRadius(sigma)))
			oris := dominantOrientations(pt, sigma, d.oriWeight[c.level])
			feats := make([]Feature, 0, len(oris))
			for _, ori := range oris {
				kp := Keypoint{
					X:           float64(c.x) * scale,
					Y:           float64(c.y) * scale,
					Sigma:       sigma * scale,
					Orientation: ori,
					Response:    c.response,
					Octave:      c.octave,
					Level:       c.level,
				}
				desc := computeDescriptor(pt, sigma, ori, d.descWeight[c.level])
				feats = append(feats, Feature{Keypoint: kp, Desc: desc})
			}
			perCand[i] = feats
		}
	})
	total := 0
	for _, fs := range perCand {
		total += len(fs)
	}
	feats := make([]Feature, 0, total)
	for _, fs := range perCand {
		feats = append(feats, fs...)
	}
	return feats
}

// Detect finds SIFT features in img. The returned slice is ordered by
// decreasing response strength. Detection runs on the configured worker
// pool; the output is bit-identical to the serial (Workers=1) path.
func (d *Detector) Detect(img *imgproc.Gray) []Feature {
	feats := d.describe(d.scan(img))
	sort.Slice(feats, func(i, j int) bool { return feats[i].Response > feats[j].Response })
	if d.cfg.MaxFeatures > 0 && len(feats) > d.cfg.MaxFeatures {
		feats = feats[:d.cfg.MaxFeatures]
	}
	return feats
}

const orientationBins = 36

// orientationRadius is the half-width of the orientation-histogram window
// at blur sigma.
func orientationRadius(sigma float64) int {
	radius := int(math.Round(3 * 1.5 * sigma))
	if radius < 1 {
		radius = 1
	}
	return radius
}

// dominantOrientations builds a 36-bin gradient orientation histogram in a
// Gaussian-weighted window (weight, from gaussianWindow) around the
// patch's keypoint and returns the dominant peak plus any secondary peaks
// within 80% of it (each spawning its own keypoint, as in Lowe 2004).
func dominantOrientations(pt *gradPatch, sigma float64, weight []float64) []float64 {
	var hist [orientationBins]float64
	radius := orientationRadius(sigma)
	side := 2*pt.radius + 1
	for dy := -radius; dy <= radius; dy++ {
		row := (dy+pt.radius)*side + pt.radius
		for dx := -radius; dx <= radius; dx++ {
			mag := pt.mag[row+dx]
			if mag == 0 {
				continue
			}
			theta := pt.theta[row+dx]
			bin := int(math.Floor((theta + math.Pi) / (2 * math.Pi) * orientationBins))
			if bin >= orientationBins {
				bin = orientationBins - 1
			}
			if bin < 0 {
				bin = 0
			}
			hist[bin] += mag * weight[dx*dx+dy*dy]
		}
	}
	// Smooth the histogram (twice, circular box filter of width 3).
	for pass := 0; pass < 2; pass++ {
		var sm [orientationBins]float64
		for i := range hist {
			prev := hist[(i+orientationBins-1)%orientationBins]
			next := hist[(i+1)%orientationBins]
			sm[i] = (prev + hist[i] + next) / 3
		}
		hist = sm
	}
	maxV := 0.0
	for _, v := range hist {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return []float64{0}
	}
	var oris []float64
	for i, v := range hist {
		prev := hist[(i+orientationBins-1)%orientationBins]
		next := hist[(i+1)%orientationBins]
		if v < prev || v < next || v < 0.8*maxV {
			continue
		}
		// Parabolic interpolation of the peak position.
		denom := prev - 2*v + next
		offset := 0.0
		if denom != 0 {
			offset = 0.5 * (prev - next) / denom
		}
		bin := float64(i) + offset
		theta := bin/orientationBins*2*math.Pi - math.Pi + math.Pi/orientationBins
		if theta > math.Pi {
			theta -= 2 * math.Pi
		}
		if theta < -math.Pi {
			theta += 2 * math.Pi
		}
		oris = append(oris, theta)
	}
	if len(oris) == 0 {
		oris = append(oris, 0)
	}
	return oris
}

const (
	descGrid    = 4 // 4x4 spatial bins
	descOriBins = 8 // 8 orientation bins per spatial bin
)

// descBinWidth is the width in pixels of one spatial descriptor bin.
func descBinWidth(sigma float64) float64 { return 3 * sigma }

// descriptorRadius is the half-width of the square that contains the
// rotated descriptor window at blur sigma.
func descriptorRadius(sigma float64) int {
	radius := int(math.Round(descBinWidth(sigma) * float64(descGrid) / 2 * math.Sqrt2))
	if radius < 2 {
		radius = 2
	}
	return radius
}

// computeDescriptor samples the patch's gradients in a 16×16 (scaled by
// sigma) window rotated to the keypoint orientation and accumulates them,
// Gaussian-weighted (weight, the descriptor's square window), into the
// 4×4×8 histogram grid, then applies L2 normalization with the 0.2 clamp.
//
// The rotation's four products are hoisted — per column into the patch's
// tables, per row into two values — and simd.DescRow adds one patch row at
// a time into a simd.DescGrid: the 4×4 cells with a ring of one cell
// around them, which takes the trilinear spread's shares for cells outside
// the grid so that no pixel tests for them. Every inner bin gets the adds
// it would get without the ring, in the same order; the descriptor is the
// inner cells, copied out row by row.
func computeDescriptor(pt *gradPatch, sigma, orientation float64, weight []float64) Descriptor {
	binWidth := descBinWidth(sigma)
	radius := descriptorRadius(sigma)
	cosT := math.Cos(-orientation)
	sinT := math.Sin(-orientation)
	side, n := 2*pt.radius+1, 2*radius+1
	if cap(pt.colCos) < n {
		pt.colCos = make([]float64, n)
		pt.colSin = make([]float64, n)
	}
	colCos, colSin := pt.colCos[:n], pt.colSin[:n]
	for dx := -radius; dx <= radius; dx++ {
		colCos[dx+radius] = cosT * float64(dx)
		colSin[dx+radius] = sinT * float64(dx)
	}
	var grid simd.DescGrid
	for dy := -radius; dy <= radius; dy++ {
		row := (dy+pt.radius)*side + pt.radius - radius
		simd.DescRow(&grid, pt.mag[row:][:n], pt.theta[row:][:n], weight[(dy+radius)*n:][:n], colCos, colSin,
			sinT*float64(dy), cosT*float64(dy), binWidth, orientation)
	}
	var desc Descriptor
	const rowBins = descGrid * descOriBins
	for y := 0; y < descGrid; y++ {
		copy(desc[y*rowBins:][:rowBins], grid[((y+1)*(descGrid+2)+1)*descOriBins:])
	}
	normalizeDescriptor(&desc)
	return desc
}

// normalizeDescriptor applies L2 normalization, clamps components at 0.2,
// and renormalizes — the standard illumination-invariance step.
func normalizeDescriptor(d *Descriptor) {
	norm := float64(0)
	for _, v := range d {
		norm += float64(v) * float64(v)
	}
	if norm == 0 {
		return
	}
	norm = math.Sqrt(norm)
	for i := range d {
		v := float64(d[i]) / norm
		if v > 0.2 {
			v = 0.2
		}
		d[i] = float32(v)
	}
	norm = 0
	for _, v := range d {
		norm += float64(v) * float64(v)
	}
	if norm == 0 {
		return
	}
	norm = math.Sqrt(norm)
	for i := range d {
		d[i] = float32(float64(d[i]) / norm)
	}
}
