package sift

// Exact-equality oracles for the detector's rewritten stages. Everything
// prefixed ref is the code this package shipped before the rewrite —
// clamped At reads, a gradient per sample, math.Exp per weight, a fresh
// image per pyramid step — kept as the definition of what Detect returns.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/imgproc"
)

func refBlur(src *imgproc.Gray, sigma float64) *imgproc.Gray {
	k := imgproc.GaussianKernel(sigma)
	radius := len(k) / 2
	tmp := imgproc.NewGray(src.W, src.H)
	dst := imgproc.NewGray(src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			var acc float32
			for i := -radius; i <= radius; i++ {
				acc += src.At(x+i, y) * k[i+radius]
			}
			tmp.Pix[y*src.W+x] = acc
		}
	}
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			var acc float32
			for i := -radius; i <= radius; i++ {
				acc += tmp.At(x, y+i) * k[i+radius]
			}
			dst.Pix[y*src.W+x] = acc
		}
	}
	return dst
}

func refDownsample(src *imgproc.Gray) *imgproc.Gray {
	w, h := max(src.W/2, 1), max(src.H/2, 1)
	out := imgproc.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx, sy := 2*x, 2*y
			sum := src.At(sx, sy) + src.At(sx+1, sy) + src.At(sx, sy+1) + src.At(sx+1, sy+1)
			out.Pix[y*w+x] = sum / 4
		}
	}
	return out
}

type refPyramid struct {
	gauss  [][]*imgproc.Gray
	dog    [][]*imgproc.Gray
	sigmas []float64
}

func refBuildPyramid(cfg Config, img *imgproc.Gray) *refPyramid {
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
	k := math.Pow(2, 1/float64(cfg.Levels))
	sigmas := make([]float64, nLevels)
	sigmas[0] = cfg.SigmaBase
	for i := 1; i < nLevels; i++ {
		sigmas[i] = sigmas[0] * math.Pow(k, float64(i))
	}

	p := &refPyramid{sigmas: sigmas}
	base := refBlur(img, cfg.SigmaBase)
	for o := 0; o < octaves; o++ {
		levels := make([]*imgproc.Gray, nLevels)
		levels[0] = base
		for i := 1; i < nLevels; i++ {
			sPrev, sCur := sigmas[i-1], sigmas[i]
			inc := math.Sqrt(sCur*sCur - sPrev*sPrev)
			levels[i] = refBlur(levels[i-1], inc)
		}
		dogs := make([]*imgproc.Gray, nLevels-1)
		for i := 0; i < nLevels-1; i++ {
			dogs[i] = imgproc.NewGray(levels[i].W, levels[i].H)
			for j := range dogs[i].Pix {
				dogs[i].Pix[j] = levels[i+1].Pix[j] - levels[i].Pix[j]
			}
		}
		p.gauss = append(p.gauss, levels)
		p.dog = append(p.dog, dogs)
		next := levels[cfg.Levels]
		if next.W < 4 || next.H < 4 {
			break
		}
		base = refDownsample(next)
		if base.W < 4 || base.H < 4 {
			break
		}
	}
	return p
}

func refIsExtremum(dogs []*imgproc.Gray, l, x, y int) bool {
	v := dogs[l].At(x, y)
	isMax := true
	isMin := true
	for dl := -1; dl <= 1; dl++ {
		img := dogs[l+dl]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dl == 0 && dx == 0 && dy == 0 {
					continue
				}
				n := img.At(x+dx, y+dy)
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

func refEdgeLike(img *imgproc.Gray, x, y int, edgeThreshold float64) bool {
	dxx := float64(img.At(x+1, y) + img.At(x-1, y) - 2*img.At(x, y))
	dyy := float64(img.At(x, y+1) + img.At(x, y-1) - 2*img.At(x, y))
	dxy := float64(img.At(x+1, y+1)-img.At(x-1, y+1)-img.At(x+1, y-1)+img.At(x-1, y-1)) / 4
	tr := dxx + dyy
	det := dxx*dyy - dxy*dxy
	if det <= 0 {
		return true
	}
	r := edgeThreshold
	return tr*tr/det >= (r+1)*(r+1)/r
}

func refScanExtrema(cfg Config, p *refPyramid) []candidate {
	var cands []candidate
	for o := range p.dog {
		dogs := p.dog[o]
		for l := 1; l < len(dogs)-1; l++ {
			img := dogs[l]
			for y := 1; y < img.H-1; y++ {
				for x := 1; x < img.W-1; x++ {
					v := img.At(x, y)
					if math.Abs(float64(v)) < cfg.ContrastThreshold {
						continue
					}
					if !refIsExtremum(dogs, l, x, y) {
						continue
					}
					if refEdgeLike(img, x, y, cfg.EdgeThreshold) {
						continue
					}
					cands = append(cands, candidate{
						octave: o, level: l, x: x, y: y,
						response: math.Abs(float64(v)),
					})
				}
			}
		}
	}
	return cands
}

func refDominantOrientations(img *imgproc.Gray, x, y int, sigma float64) []float64 {
	var hist [orientationBins]float64
	radius := int(math.Round(3 * 1.5 * sigma))
	if radius < 1 {
		radius = 1
	}
	w := 1.5 * sigma
	inv := -1 / (2 * w * w)
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			px, py := x+dx, y+dy
			if px < 1 || px >= img.W-1 || py < 1 || py >= img.H-1 {
				continue
			}
			mag, theta := imgproc.Gradient(img, px, py)
			if mag == 0 {
				continue
			}
			weight := math.Exp(float64(dx*dx+dy*dy) * inv)
			bin := int(math.Floor((theta + math.Pi) / (2 * math.Pi) * orientationBins))
			if bin >= orientationBins {
				bin = orientationBins - 1
			}
			if bin < 0 {
				bin = 0
			}
			hist[bin] += mag * weight
		}
	}
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

func refComputeDescriptor(img *imgproc.Gray, x, y int, sigma, orientation float64) Descriptor {
	var desc Descriptor
	binWidth := 3 * sigma
	radius := int(math.Round(binWidth * float64(descGrid) / 2 * math.Sqrt2))
	if radius < 2 {
		radius = 2
	}
	cosT := math.Cos(-orientation)
	sinT := math.Sin(-orientation)
	window := float64(descGrid) * binWidth / 2
	inv := -1 / (2 * window * window)
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			px, py := x+dx, y+dy
			if px < 1 || px >= img.W-1 || py < 1 || py >= img.H-1 {
				continue
			}
			rx := (cosT*float64(dx) - sinT*float64(dy)) / binWidth
			ry := (sinT*float64(dx) + cosT*float64(dy)) / binWidth
			bx := rx + float64(descGrid)/2 - 0.5
			by := ry + float64(descGrid)/2 - 0.5
			if bx <= -1 || bx >= descGrid || by <= -1 || by >= descGrid {
				continue
			}
			mag, theta := imgproc.Gradient(img, px, py)
			if mag == 0 {
				continue
			}
			rel := theta - orientation
			for rel < 0 {
				rel += 2 * math.Pi
			}
			for rel >= 2*math.Pi {
				rel -= 2 * math.Pi
			}
			ob := rel / (2 * math.Pi) * descOriBins
			weight := mag * math.Exp(float64(dx*dx+dy*dy)*inv)
			refTrilinearAccumulate(&desc, bx, by, ob, weight)
		}
	}
	normalizeDescriptor(&desc)
	return desc
}

// refTrilinearAccumulate distributes weight across the neighbouring
// spatial and orientation bins (standard SIFT trilinear interpolation) —
// the loop computeDescriptor now spells out cell by cell.
func refTrilinearAccumulate(desc *Descriptor, bx, by, ob float64, weight float64) {
	x0 := int(math.Floor(bx))
	y0 := int(math.Floor(by))
	o0 := int(math.Floor(ob))
	fx := bx - float64(x0)
	fy := by - float64(y0)
	fo := ob - float64(o0)
	for di := 0; di <= 1; di++ {
		yi := y0 + di
		if yi < 0 || yi >= descGrid {
			continue
		}
		wy := weight
		if di == 0 {
			wy *= 1 - fy
		} else {
			wy *= fy
		}
		for dj := 0; dj <= 1; dj++ {
			xi := x0 + dj
			if xi < 0 || xi >= descGrid {
				continue
			}
			wx := wy
			if dj == 0 {
				wx *= 1 - fx
			} else {
				wx *= fx
			}
			for dk := 0; dk <= 1; dk++ {
				oi := (o0 + dk) % descOriBins
				if oi < 0 {
					oi += descOriBins
				}
				wo := wx
				if dk == 0 {
					wo *= 1 - fo
				} else {
					wo *= fo
				}
				desc[(yi*descGrid+xi)*descOriBins+oi] += float32(wo)
			}
		}
	}
}

// refDetect is Detect assembled from the reference stages, serially.
func refDetect(cfg Config, img *imgproc.Gray) []Feature {
	p := refBuildPyramid(cfg, img)
	var feats []Feature
	for _, c := range refScanExtrema(cfg, p) {
		sigma := p.sigmas[c.level]
		grad := p.gauss[c.octave][c.level]
		scale := float64(int(1) << uint(c.octave))
		for _, ori := range refDominantOrientations(grad, c.x, c.y, sigma) {
			feats = append(feats, Feature{
				Keypoint: Keypoint{
					X:           float64(c.x) * scale,
					Y:           float64(c.y) * scale,
					Sigma:       sigma * scale,
					Orientation: ori,
					Response:    c.response,
					Octave:      c.octave,
					Level:       c.level,
				},
				Desc: refComputeDescriptor(grad, c.x, c.y, sigma, ori),
			})
		}
	}
	sort.Slice(feats, func(i, j int) bool { return feats[i].Response > feats[j].Response })
	if cfg.MaxFeatures > 0 && len(feats) > cfg.MaxFeatures {
		feats = feats[:cfg.MaxFeatures]
	}
	return feats
}

var oracleSizes = [][2]int{{320, 180}, {160, 90}, {40, 22}, {33, 17}, {21, 4}, {7, 5}, {3, 3}, {1, 1}}

// noiseImage is smooth structure plus noise, with flat runs (zero
// gradients) and plateaus (ties between neighbours) mixed in.
func noiseImage(w, h int, seed int64) *imgproc.Gray {
	rng := rand.New(rand.NewSource(seed))
	g := imgproc.NewGray(w, h)
	for i := range g.Pix {
		v := 0.5 + 0.3*math.Sin(float64(i%w)/5)*math.Cos(float64(i/w)/3) + 0.1*rng.NormFloat64()
		if rng.Intn(4) == 0 {
			v = math.Round(v*4) / 4
		}
		g.Pix[i] = float32(v)
	}
	return g
}

// sameFeatures demands ==, which on floats differs from bit equality only
// by rejecting NaN — and a NaN anywhere is a failure too.
func sameFeatures(t *testing.T, what string, got, want []Feature) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: feature %d differs:\n got %+v\nwant %+v", what, i, got[i].Keypoint, want[i].Keypoint)
		}
	}
}

func TestExtremaMatchReference(t *testing.T) {
	for _, size := range oracleSizes {
		w, h := size[0], size[1]
		dogs := make([]*imgproc.Gray, 3)
		for l := range dogs {
			dogs[l] = noiseImage(w, h, int64(l+1))
			for i := range dogs[l].Pix {
				dogs[l].Pix[i] -= 0.5
			}
		}
		// Plant exact extrema and exact ties so both verdicts occur.
		for y := 1; y < h-1; y += 3 {
			for x := 1; x < w-1; x += 3 {
				dogs[1].Pix[y*w+x] = float32(2 * (1 - 2*((x+y)&1)))
			}
		}
		extrema := 0
		for y := 1; y < h-1; y++ {
			for x := 1; x < w-1; x++ {
				i := y*w + x
				got := isExtremum(dogs[0].Pix, dogs[1].Pix, dogs[2].Pix, w, i)
				if want := refIsExtremum(dogs, 1, x, y); got != want {
					t.Fatalf("%dx%d isExtremum(%d,%d) = %v, reference %v", w, h, x, y, got, want)
				}
				if got {
					extrema++
				}
				for _, thr := range []float64{10, 1.5} {
					got := edgeLike(dogs[1].Pix, w, i, thr)
					if want := refEdgeLike(dogs[1], x, y, thr); got != want {
						t.Fatalf("%dx%d edgeLike(%d,%d, %v) = %v, reference %v", w, h, x, y, thr, got, want)
					}
				}
			}
		}
		if w >= 7 && h >= 5 && extrema == 0 {
			t.Errorf("%dx%d: no extremum among the planted ones", w, h)
		}
	}
}

func TestDescribeMatchesReference(t *testing.T) {
	pt := new(gradPatch) // one patch throughout: its tables are reused across levels
	describeMatchesReference(t, New(Defaults()), pt, oracleSizes)
	describeMatchesReference(t, New(Config{Levels: 4, SigmaBase: 2.2}), pt, oracleSizes[2:])
}

// axisOrientations are keypoint orientations the histogram rarely yields:
// the axes, where a rotation product is zero or a bin coordinate lands on
// a cell boundary, both ends of the range, and just off zero.
var axisOrientations = []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi, -math.Pi, 1e-9, -3}

func describeMatchesReference(t *testing.T, d *Detector, pt *gradPatch, sizes [][2]int) {
	for _, size := range sizes {
		w, h := size[0], size[1]
		img := noiseImage(w, h, int64(w*h))
		// Every pixel of the small images; a lattice that touches all
		// four borders and the corners of the large ones.
		step := 1
		if w*h > 1000 {
			step = 13
		}
		for y := 0; y < h; y += step {
			for x := 0; x < w; x += step {
				for _, at := range [][2]int{{x, y}, {w - 1 - x, h - 1 - y}} {
					for l := 1; l <= d.cfg.Levels; l++ {
						sigma := d.sigmas[l]
						pt.fill(img, at[0], at[1], max(orientationRadius(sigma), descriptorRadius(sigma)))
						what := fmt.Sprintf("%dx%d at (%d,%d) level %d of %d", w, h, at[0], at[1], l, d.cfg.Levels)
						got := dominantOrientations(pt, sigma, d.oriWeight[l])
						want := refDominantOrientations(img, at[0], at[1], sigma)
						if len(got) != len(want) {
							t.Fatalf("%s: %d orientations, reference %d", what, len(got), len(want))
						}
						for i, ori := range want {
							if math.Float64bits(got[i]) != math.Float64bits(ori) {
								t.Fatalf("%s: orientation %d = %v, reference %v", what, i, got[i], ori)
							}
						}
						if (at[0]+at[1])%9 == 0 {
							want = append(want, axisOrientations...)
						}
						for _, ori := range want {
							if computeDescriptor(pt, sigma, ori, d.descWeight[l]) != refComputeDescriptor(img, at[0], at[1], sigma, ori) {
								t.Fatalf("%s: descriptor at orientation %v differs from reference", what, ori)
							}
						}
					}
				}
			}
		}
	}
}

func clipFrames(t testing.TB) []*imgproc.Gray {
	t.Helper()
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, Seed: 7})
	var frames []*imgproc.Gray
	for _, i := range []int{0, 17, 33, 59} {
		frames = append(frames, gen.GrayFrame(i))
	}
	return frames
}

func TestDetectMatchesReference(t *testing.T) {
	frames := clipFrames(t)
	if testing.Short() {
		frames = frames[:1]
	}
	capped := Defaults()
	capped.MaxFeatures = 150
	for fi, frame := range frames {
		for _, cfg := range []Config{capped, Defaults()} {
			cfg.Workers = 1
			want := refDetect(New(cfg).cfg, frame)
			if len(want) < 20 {
				t.Fatalf("clip frame %d: reference finds only %d features", fi, len(want))
			}
			for _, workers := range []int{1, 2} {
				cfg.Workers = workers
				got := New(cfg).Detect(frame)
				sameFeatures(t, fmt.Sprintf("clip frame %d, cap %d, workers %d", fi, cfg.MaxFeatures, workers), got, want)
			}
		}
	}
	// Odd sizes: octaves that end early, rows shorter than a kernel.
	for _, size := range [][2]int{{33, 17}, {21, 4}, {7, 5}, {3, 3}, {1, 1}} {
		img := noiseImage(size[0], size[1], 9)
		cfg := New(Config{ContrastThreshold: 0.005, Workers: 2}).cfg
		sameFeatures(t, fmt.Sprintf("%dx%d", size[0], size[1]), New(cfg).Detect(img), refDetect(cfg, img))
	}
}

// Detect calls share the tmp and patch pools; concurrent calls (two
// frames at once in the sift worker) must not see each other's scratch.
func TestDetectConcurrentMatchesSerial(t *testing.T) {
	frames := clipFrames(t)
	small := noiseImage(96, 64, 3)
	frames = append(frames, small, testPattern(128, 128))
	cfg := Defaults()
	cfg.MaxFeatures = 150
	d := New(cfg)
	want := make([][]Feature, len(frames))
	for i, f := range frames {
		want[i] = d.Detect(f)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				i := (g + r) % len(frames)
				got := d.Detect(frames[i])
				if len(got) != len(want[i]) {
					t.Errorf("goroutine %d: frame %d: %d features, serial %d", g, i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("goroutine %d: frame %d: feature %d differs from serial", g, i, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
