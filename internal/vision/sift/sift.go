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
	"sort"
	"sync"

	"github.com/edge-mar/scatter/internal/vision/imgproc"
	"github.com/edge-mar/scatter/internal/vision/parallel"
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
	// oriWeight[l] and descWeight[l] are the Gaussian windows of the
	// orientation histogram and of the descriptor at level l, indexed by
	// the squared pixel distance dx²+dy² from the keypoint.
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
		d.descWeight[l] = gaussianWindow(descriptorRadius(sigma), descGrid*descBinWidth(sigma)/2)
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

// pyramid holds the Gaussian and DoG scale spaces for one image.
type pyramid struct {
	// gauss[octave][level] is set for levels 1..Levels, the ones
	// descriptors sample; the storage of the other three went to dog.
	gauss [][]*imgproc.Gray
	dog   [][]*imgproc.Gray // [octave][level], levels+2 per octave
}

// tmpPool holds the blur's horizontal-pass buffer between Detect calls.
// Every blur overwrites it whole, so one buffer serves a whole pyramid.
var tmpPool sync.Pool

func (d *Detector) buildPyramid(img *imgproc.Gray) *pyramid {
	cfg := d.cfg
	octaves := cfg.Octaves
	if octaves == 0 {
		minDim := img.W
		if img.H < minDim {
			minDim = img.H
		}
		for octaves = 0; minDim >= 16; octaves++ {
			minDim /= 2
		}
		if octaves < 1 {
			octaves = 1
		}
	}
	nLevels := cfg.Levels + 3

	scratch, _ := tmpPool.Get().(*[]float32)
	if scratch == nil || cap(*scratch) < len(img.Pix) {
		buf := make([]float32, len(img.Pix))
		scratch = &buf
	}
	defer tmpPool.Put(scratch)
	blur := func(src *imgproc.Gray, k []float32) *imgproc.Gray {
		dst := imgproc.NewGray(src.W, src.H)
		tmp := imgproc.Gray{W: src.W, H: src.H, Pix: (*scratch)[:len(src.Pix)]}
		imgproc.BlurInto(dst, &tmp, src, k, cfg.Workers)
		return dst
	}

	p := &pyramid{}
	base := blur(img, d.kernels[0])
	for o := 0; o < octaves; o++ {
		levels := make([]*imgproc.Gray, nLevels)
		levels[0] = base
		for i := 1; i < nLevels; i++ {
			// Levels chain sequentially, but each blur's convolution
			// passes fan rows out across the pool.
			levels[i] = blur(levels[i-1], d.kernels[i])
		}
		// Next octave starts from the level with blur 2*sigmaBase.
		next := levels[cfg.Levels]

		// dogs[i] = levels[i+1] - levels[i]. Nothing downstream reads
		// Gaussian levels 0, Levels+1 and Levels+2, so the three DoG
		// images at the ends are written over them — each level only
		// after the last difference that needs it.
		last := nLevels - 2
		dogs := make([]*imgproc.Gray, nLevels-1)
		inPlace := func(i int, over *imgproc.Gray) {
			imgproc.SubtractInto(over, levels[i+1], levels[i])
			dogs[i] = over
		}
		inPlace(0, levels[0])
		inPlace(last, levels[last+1])
		inPlace(last-1, levels[last])
		for i := 1; i < last-1; i++ {
			dogs[i] = imgproc.Subtract(levels[i+1], levels[i])
		}
		levels[0], levels[last], levels[last+1] = nil, nil, nil

		p.gauss = append(p.gauss, levels)
		p.dog = append(p.dog, dogs)
		if next.W < 4 || next.H < 4 {
			break
		}
		base = imgproc.Downsample(next)
		if base.W < 4 || base.H < 4 {
			break
		}
	}
	return p
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

// scanGrain is the row granularity of the parallel extrema scan;
// describeGrain the keypoint granularity of descriptor computation.
// Both are fixed so chunk boundaries — and therefore output order —
// never depend on the worker count.
const (
	scanGrain     = 16
	describeGrain = 4
)

// scanExtrema finds DoG extrema across the pyramid, parallelized over row
// bands within each (octave, level). Per-chunk candidate lists are
// concatenated in chunk order, so the result matches the serial
// octave→level→row→column scan order exactly. The scan visits interior
// pixels only, so neighbours are read straight out of the three slices.
func (d *Detector) scanExtrema(p *pyramid) []candidate {
	cfg := d.cfg
	var cands []candidate
	for o := range p.dog {
		dogs := p.dog[o]
		for l := 1; l < len(dogs)-1; l++ {
			w := dogs[l].W
			below, cur, above := dogs[l-1].Pix, dogs[l].Pix, dogs[l+1].Pix
			rows := dogs[l].H - 2
			if rows <= 0 {
				continue
			}
			parts := make([][]candidate, parallel.Chunks(rows, scanGrain))
			parallel.For(cfg.Workers, rows, scanGrain, func(chunk, start, end int) {
				var out []candidate
				for y := start + 1; y < end+1; y++ {
					for x := 1; x < w-1; x++ {
						i := y*w + x
						response := math.Abs(float64(cur[i]))
						if response < cfg.ContrastThreshold {
							continue
						}
						if !isExtremum(below, cur, above, w, i) {
							continue
						}
						if edgeLike(cur, w, i, cfg.EdgeThreshold) {
							continue
						}
						out = append(out, candidate{
							octave: o, level: l, x: x, y: y,
							response: response,
						})
					}
				}
				parts[chunk] = out
			})
			for _, part := range parts {
				cands = append(cands, part...)
			}
		}
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
		for px := lo; px <= hi; px++ {
			gx := float64(cur[px+1] - cur[px-1])
			gy := float64(down[px] - up[px])
			mag[px-left] = math.Hypot(gx, gy)
			theta[px-left] = math.Atan2(gy, gx)
		}
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
			pt.fill(p.gauss[c.octave][c.level], c.x, c.y, max(orientationRadius(sigma), descriptorRadius(sigma)))
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
	p := d.buildPyramid(img)
	feats := d.describe(p, d.scanExtrema(p))
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
// Gaussian-weighted (weight, from gaussianWindow), into the 4×4×8
// histogram grid, then applies L2 normalization with the 0.2 clamp.
//
// The rotation's four products are hoisted — per column into the patch's
// tables, per row into two locals — and the trilinear spread over the
// neighbouring spatial and orientation bins is written out: the bin
// coordinates lie in (-1, 4), so a floor is a truncation or -1, the
// orientation bin wraps with a mask, and each of the (up to) eight cells
// receives the product weight·wy·wx·wo associated in that order.
func computeDescriptor(pt *gradPatch, sigma, orientation float64, weight []float64) Descriptor {
	var desc Descriptor
	binWidth := descBinWidth(sigma)
	radius := descriptorRadius(sigma)
	cosT := math.Cos(-orientation)
	sinT := math.Sin(-orientation)
	side := 2*pt.radius + 1
	if cap(pt.colCos) < 2*radius+1 {
		pt.colCos = make([]float64, 2*radius+1)
		pt.colSin = make([]float64, 2*radius+1)
	}
	colCos, colSin := pt.colCos[:2*radius+1], pt.colSin[:2*radius+1]
	for dx := -radius; dx <= radius; dx++ {
		colCos[dx+radius] = cosT * float64(dx)
		colSin[dx+radius] = sinT * float64(dx)
	}
	for dy := -radius; dy <= radius; dy++ {
		row := (dy+pt.radius)*side + pt.radius
		mags := pt.mag[row-radius:][:2*radius+1]
		thetas := pt.theta[row-radius:][:2*radius+1]
		rowSin, rowCos := sinT*float64(dy), cosT*float64(dy)
		dy2 := dy * dy
		for i, mag := range mags {
			if mag == 0 {
				continue
			}
			// Rotate the offset into the keypoint frame.
			rx := (colCos[i] - rowSin) / binWidth
			ry := (colSin[i] + rowCos) / binWidth
			// Continuous bin coordinates in [0, 4).
			bx := rx + float64(descGrid)/2 - 0.5
			by := ry + float64(descGrid)/2 - 0.5
			if bx <= -1 || bx >= descGrid || by <= -1 || by >= descGrid {
				continue
			}
			rel := thetas[i] - orientation
			for rel < 0 {
				rel += 2 * math.Pi
			}
			for rel >= 2*math.Pi {
				rel -= 2 * math.Pi
			}
			ob := rel / (2 * math.Pi) * descOriBins

			x0, y0 := int(bx), int(by)
			if bx < 0 {
				x0 = -1
			}
			if by < 0 {
				y0 = -1
			}
			o0 := int(ob)
			fx := bx - float64(x0)
			fy := by - float64(y0)
			fo := ob - float64(o0)
			o0, o1 := o0&(descOriBins-1), (o0+1)&(descOriBins-1)
			dx := i - radius
			w := mag * weight[dx*dx+dy2]
			// spread adds a spatial cell's share wx to its two orientation
			// bins.
			spread := func(cell int, wx float64) {
				bins := desc[cell*descOriBins:][:descOriBins]
				bins[o0] += float32(wx * (1 - fo))
				bins[o1] += float32(wx * fo)
			}
			if y0 >= 0 {
				wy := w * (1 - fy)
				if x0 >= 0 {
					spread(y0*descGrid+x0, wy*(1-fx))
				}
				if x0 < descGrid-1 {
					spread(y0*descGrid+x0+1, wy*fx)
				}
			}
			if y0 < descGrid-1 {
				wy := w * fy
				if x0 >= 0 {
					spread((y0+1)*descGrid+x0, wy*(1-fx))
				}
				if x0 < descGrid-1 {
					spread((y0+1)*descGrid+x0+1, wy*fx)
				}
			}
		}
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

// L2 returns the Euclidean distance between two descriptors.
func L2(a, b *Descriptor) float64 {
	return math.Sqrt(L2Sq(a, b))
}

// L2Sq returns the squared Euclidean distance between two descriptors.
// Sqrt is monotone, so nearest-neighbour selection over L2Sq picks the
// same winners as over L2 — the ratio-test kernels select on L2Sq and
// take sqrt only for the two distances that survive per query feature.
func L2Sq(a, b *Descriptor) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i] - b[i])
		sum += d * d
	}
	return sum
}
