// Package imgproc provides the image-processing substrate used by the
// scAtteR vision services: grayscale float images, separable Gaussian
// filtering, bilinear resampling, and gradient computation.
//
// All operations work on Gray, a float32 single-channel image with values
// nominally in [0, 1]. The representation is row-major with no padding so
// that a caller can lay many images out in one buffer: the Into forms
// write into images it provides.
package imgproc

import (
	"fmt"
	"math"

	"github.com/edge-mar/scatter/internal/vision/parallel"
	"github.com/edge-mar/scatter/internal/vision/simd"
)

// convGrain is the row granularity of the parallel separable convolution.
// Every output pixel is an independent exact computation, so the fan-out
// is bit-identical to the serial scan at any worker count.
const convGrain = 16

// serialWork is the multiply-add count under which a convolution pass
// skips the worker pool (the same cutoff lsh uses for its hash fan-out).
const serialWork = 1 << 17

// Gray is a single-channel float32 image. Pixel (x, y) is stored at
// Pix[y*W+x]. Values are nominally in [0, 1] but intermediate results
// (for example difference-of-Gaussian responses) may leave that range.
type Gray struct {
	W, H int
	Pix  []float32
}

// NewGray allocates a zeroed w×h image. It panics if either dimension is
// not positive, since a zero-sized image is always a programming error in
// this codebase.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the pixel at (x, y). Out-of-bounds coordinates are clamped to
// the image border, which is the boundary handling used by every filter in
// this package.
func (g *Gray) At(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y). Out-of-bounds writes are ignored.
func (g *Gray) Set(x, y int, v float32) {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// BilinearAt samples the image at a sub-pixel location with bilinear
// interpolation, clamping at the borders.
func (g *Gray) BilinearAt(x, y float64) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	v00 := g.At(x0, y0)
	v10 := g.At(x0+1, y0)
	v01 := g.At(x0, y0+1)
	v11 := g.At(x0+1, y0+1)
	top := v00 + fx*(v10-v00)
	bot := v01 + fx*(v11-v01)
	return top + fy*(bot-top)
}

// GaussianKernel returns a normalized 1-D Gaussian kernel for the given
// sigma. The radius is ceil(3*sigma), which captures >99.7% of the mass.
// sigma must be positive.
func GaussianKernel(sigma float64) []float32 {
	if sigma <= 0 {
		panic("imgproc: sigma must be positive")
	}
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	k := make([]float32, 2*radius+1)
	sum := float32(0)
	inv := -1 / (2 * sigma * sigma)
	for i := -radius; i <= radius; i++ {
		v := float32(math.Exp(float64(i*i) * inv))
		k[i+radius] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// convWorkers returns the worker count for one convolution pass over g.
// Below serialWork multiply-adds the fan-out costs more in goroutine
// handoff than the pass itself (the small pyramid octaves), and on vector
// units that holds for every image this pipeline sees — waking the second
// core takes longer than a whole vectorised 320×180 pass, and a fanned-out
// pyramid measured slower than a serial one (EXPERIMENTS.md, "Third
// purchase") — so those passes run on the caller. Chunking never affects
// results, only who computes them.
func convWorkers(g *Gray, taps, workers int) int {
	if simd.Vector() || g.W*g.H*taps < serialWork {
		return 1
	}
	return workers
}

// Scratch that fits these sizes lives on the stack of whoever runs a
// convolution chunk; wider rows or longer kernels fall back to the heap.
const (
	stackRow  = 2048
	stackTaps = 64
)

// fit returns n elements of scratch: buf's when it has them, else new ones.
func fit[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	return buf[:n]
}

// convolveH convolves src horizontally with kernel k into dst, fanning
// rows out across workers (0 = GOMAXPROCS, 1 = serial). dst and src must
// have identical dimensions and must not alias. Each row is copied between
// radius repeats of its first and of its last pixel — tap for tap what
// clamping every index to the row reads — so borders and interior are one
// simd.Conv call: every output pixel starts from zero and adds its taps in
// ascending order.
func convolveH(dst, src *Gray, k []float32, workers int) {
	w, radius := src.W, len(k)/2
	parallel.For(convWorkers(src, len(k), workers), src.H, convGrain, func(_, start, end int) {
		var rowBuf [stackRow]float32
		var offBuf [stackTaps]int
		padded, offs := fit(rowBuf[:], w+2*radius), fit(offBuf[:], len(k))
		for i := range offs {
			offs[i] = i
		}
		for y := start; y < end; y++ {
			row := src.Pix[y*w : (y+1)*w]
			for i := 0; i < radius; i++ {
				padded[i], padded[radius+w+i] = row[0], row[w-1]
			}
			copy(padded[radius:], row)
			simd.Conv(dst.Pix[y*w:(y+1)*w], padded, offs, k)
		}
	})
}

// convolveV convolves src vertically with kernel k into dst, fanning rows
// out across workers. dst and src must have identical dimensions and must
// not alias. An output row is simd.Conv over the len(k) source rows around
// it, clamped at the top and bottom: per pixel the same start-from-zero,
// ascending-tap sum as a column walk, read along rows.
func convolveV(dst, src *Gray, k []float32, workers int) {
	w, h, radius := src.W, src.H, len(k)/2
	parallel.For(convWorkers(src, len(k), workers), h, convGrain, func(_, start, end int) {
		var offBuf [stackTaps]int
		offs := fit(offBuf[:], len(k))
		for y := start; y < end; y++ {
			for i := range offs {
				offs[i] = min(max(y+i-radius, 0), h-1) * w
			}
			simd.Conv(dst.Pix[y*w:(y+1)*w], src.Pix, offs, k)
		}
	})
}

// BlurInto convolves src with the separable kernel k (GaussianKernel) into
// dst, using tmp for the horizontal pass. All three images must have the
// same dimensions; tmp must alias neither of the others and its previous
// contents are irrelevant, so callers can keep one across many blurs.
func BlurInto(dst, tmp, src *Gray, k []float32, workers int) {
	convolveH(tmp, src, k, workers)
	convolveV(dst, tmp, k, workers)
}

// DownsampleInto writes src reduced by a factor of two with 2×2 box
// averaging into dst, which must be max(src.W/2, 1)×max(src.H/2, 1) and
// must not overlap src. Odd trailing rows/columns are dropped.
func DownsampleInto(dst, src *Gray) {
	w, h := max(src.W/2, 1), max(src.H/2, 1)
	if dst.W != w || dst.H != h {
		panic(fmt.Sprintf("imgproc: downsample of %dx%d into %dx%d", src.W, src.H, dst.W, dst.H))
	}
	// dx and the bottom row index collapse onto the top-left sample for a
	// one-pixel-wide or one-pixel-tall source, which repeats its border.
	dx := min(1, src.W-1)
	for y := 0; y < h; y++ {
		top := src.Pix[2*y*src.W:][:src.W]
		bot := src.Pix[min(2*y+1, src.H-1)*src.W:][:src.W]
		row := dst.Pix[y*w:][:w]
		for x := range row {
			row[x] = (top[2*x] + top[2*x+dx] + bot[2*x] + bot[2*x+dx]) / 4
		}
	}
}

// Resize returns the image resampled to w×h with bilinear interpolation.
func Resize(src *Gray, w, h int) *Gray {
	out := NewGray(w, h)
	sx := float64(src.W) / float64(w)
	sy := float64(src.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			out.Pix[y*w+x] = src.BilinearAt(fx, fy)
		}
	}
	return out
}

// RGB is an 8-bit three-channel image used by the synthetic trace renderer.
// Pixel (x, y) occupies Pix[3*(y*W+x) : 3*(y*W+x)+3].
type RGB struct {
	W, H int
	Pix  []uint8
}

// NewRGB allocates a zeroed (black) w×h RGB image.
func NewRGB(w, h int) *RGB {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	return &RGB{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// Set writes an RGB pixel; out-of-bounds writes are ignored.
func (m *RGB) Set(x, y int, r, g, b uint8) {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return
	}
	i := 3 * (y*m.W + x)
	m.Pix[i] = r
	m.Pix[i+1] = g
	m.Pix[i+2] = b
}

// AtRGB reads an RGB pixel with border clamping.
func (m *RGB) AtRGB(x, y int) (r, g, b uint8) {
	if x < 0 {
		x = 0
	} else if x >= m.W {
		x = m.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= m.H {
		y = m.H - 1
	}
	i := 3 * (y*m.W + x)
	return m.Pix[i], m.Pix[i+1], m.Pix[i+2]
}

// Grayscale converts an RGB image to Gray using the ITU-R BT.601 luma
// weights, matching the grayscaling step of scAtteR's primary service.
func Grayscale(m *RGB) *Gray {
	out := NewGray(m.W, m.H)
	for i := 0; i < m.W*m.H; i++ {
		r := float32(m.Pix[3*i])
		g := float32(m.Pix[3*i+1])
		b := float32(m.Pix[3*i+2])
		out.Pix[i] = (0.299*r + 0.587*g + 0.114*b) / 255
	}
	return out
}
