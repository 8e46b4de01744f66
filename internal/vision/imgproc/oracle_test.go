package imgproc

// Exact-equality oracles for the blocked kernels: the loops below are the
// per-pixel clamped scans this package shipped before the rewrite, kept
// as the definition of what the fast forms must compute, bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/edge-mar/scatter/internal/vision/parallel"
)

func refConvolveH(dst, src *Gray, k []float32, workers int) {
	radius := len(k) / 2
	parallel.For(workers, src.H, convGrain, func(_, start, end int) {
		for y := start; y < end; y++ {
			row := src.Pix[y*src.W : (y+1)*src.W]
			for x := 0; x < src.W; x++ {
				var acc float32
				for i := -radius; i <= radius; i++ {
					xx := x + i
					if xx < 0 {
						xx = 0
					} else if xx >= src.W {
						xx = src.W - 1
					}
					acc += row[xx] * k[i+radius]
				}
				dst.Pix[y*src.W+x] = acc
			}
		}
	})
}

func refConvolveV(dst, src *Gray, k []float32, workers int) {
	radius := len(k) / 2
	parallel.For(workers, src.H, convGrain, func(_, start, end int) {
		for y := start; y < end; y++ {
			for x := 0; x < src.W; x++ {
				var acc float32
				for i := -radius; i <= radius; i++ {
					yy := y + i
					if yy < 0 {
						yy = 0
					} else if yy >= src.H {
						yy = src.H - 1
					}
					acc += src.Pix[yy*src.W+x] * k[i+radius]
				}
				dst.Pix[y*src.W+x] = acc
			}
		}
	})
}

func refDownsample(src *Gray) *Gray {
	w := src.W / 2
	h := src.H / 2
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	out := NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx := 2 * x
			sy := 2 * y
			sum := src.At(sx, sy) + src.At(sx+1, sy) + src.At(sx, sy+1) + src.At(sx+1, sy+1)
			out.Pix[y*w+x] = sum / 4
		}
	}
	return out
}

var oracleSizes = [][2]int{{320, 180}, {160, 90}, {40, 22}, {33, 17}, {21, 4}, {7, 5}, {3, 3}, {1, 1}}

// noiseImage mixes smooth structure with signed noise, exact zeros and
// negative zeros, so sign-of-zero and cancellation differences would show.
func noiseImage(w, h int, seed int64) *Gray {
	rng := rand.New(rand.NewSource(seed))
	g := NewGray(w, h)
	for i := range g.Pix {
		switch rng.Intn(8) {
		case 0:
			g.Pix[i] = 0
		case 1:
			g.Pix[i] = float32(math.Copysign(0, -1))
		default:
			g.Pix[i] = float32(rng.NormFloat64()*0.3 + 0.5*math.Sin(float64(i)/7))
		}
	}
	return g
}

func requireSameBits(t *testing.T, what string, got, want *Gray) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d, want %dx%d", what, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("%s: pixel (%d,%d) = %x (%g), want %x (%g)", what, i%want.W, i/want.W,
				math.Float32bits(got.Pix[i]), got.Pix[i], math.Float32bits(want.Pix[i]), want.Pix[i])
		}
	}
}

func TestConvolveMatchesReference(t *testing.T) {
	for _, size := range oracleSizes {
		src := noiseImage(size[0], size[1], int64(size[0]*1000+size[1]))
		for sigma := 0.5; sigma < 3.15; sigma += 0.2 {
			k := GaussianKernel(sigma)
			for _, workers := range []int{1, 2} {
				what := fmt.Sprintf("%dx%d sigma %.1f workers %d", size[0], size[1], sigma, workers)
				got, want := NewGray(src.W, src.H), NewGray(src.W, src.H)
				// Stale contents in dst must not leak into the result.
				for i := range got.Pix {
					got.Pix[i] = float32(math.NaN())
				}
				convolveH(got, src, k, workers)
				refConvolveH(want, src, k, workers)
				requireSameBits(t, "convolveH "+what, got, want)
				for i := range got.Pix {
					got.Pix[i] = float32(math.NaN())
				}
				convolveV(got, src, k, workers)
				refConvolveV(want, src, k, workers)
				requireSameBits(t, "convolveV "+what, got, want)

				tmp := NewGray(src.W, src.H)
				refConvolveH(tmp, src, k, workers)
				refConvolveV(want, tmp, k, workers)
				requireSameBits(t, "GaussianBlurWorkers "+what, GaussianBlurWorkers(src, sigma, workers), want)
			}
		}
	}
}

// TestConvolveBeyondStackScratch covers the rows and kernels too large for
// the convolution's on-stack scratch, which take it from the heap.
func TestConvolveBeyondStackScratch(t *testing.T) {
	for _, c := range []struct {
		w, h  int
		sigma float64
	}{{stackRow + 50, 3, 1}, {40, 30, float64(stackTaps) / 5}} {
		src, k := noiseImage(c.w, c.h, 8), GaussianKernel(c.sigma)
		if c.w+len(k) <= stackRow && len(k) <= stackTaps {
			t.Fatalf("%dx%d with %d taps fits the stack scratch", c.w, c.h, len(k))
		}
		got, want := NewGray(c.w, c.h), NewGray(c.w, c.h)
		convolveH(got, src, k, 1)
		refConvolveH(want, src, k, 1)
		requireSameBits(t, fmt.Sprintf("convolveH %dx%d %d taps", c.w, c.h, len(k)), got, want)
		convolveV(got, src, k, 1)
		refConvolveV(want, src, k, 1)
		requireSameBits(t, fmt.Sprintf("convolveV %dx%d %d taps", c.w, c.h, len(k)), got, want)
	}
}

func TestBlurIntoReusesScratch(t *testing.T) {
	src := noiseImage(33, 17, 1)
	k := GaussianKernel(1.2)
	want := GaussianBlurWorkers(src, 1.2, 1)
	dst, tmp := noiseImage(33, 17, 2), noiseImage(33, 17, 3)
	BlurInto(dst, tmp, src, k, 1)
	requireSameBits(t, "dirty dst and tmp", dst, want)
	BlurInto(dst, tmp, src, k, 2)
	requireSameBits(t, "second use of the same tmp", dst, want)
}

func TestSubtractIntoInPlace(t *testing.T) {
	a, b := noiseImage(21, 4, 4), noiseImage(21, 4, 5)
	want := Subtract(a, b)
	overA, overB := a.Clone(), b.Clone()
	SubtractInto(overA, overA, b)
	requireSameBits(t, "dst == a", overA, want)
	SubtractInto(overB, a, overB)
	requireSameBits(t, "dst == b", overB, want)
	defer func() {
		if recover() == nil {
			t.Fatal("SubtractInto accepted a dst of another size")
		}
	}()
	SubtractInto(NewGray(4, 21), a, b)
}

func TestDownsampleMatchesReference(t *testing.T) {
	for _, size := range append(oracleSizes, [2]int{1, 9}, [2]int{9, 1}, [2]int{2, 2}) {
		src := noiseImage(size[0], size[1], 6)
		requireSameBits(t, fmt.Sprintf("Downsample %dx%d", size[0], size[1]), Downsample(src), refDownsample(src))
	}
}

// BenchmarkConvolve times one horizontal and one vertical pass of the
// 13-tap kernel (sigma 2) over the analysis frame, against the reference
// loops, on one worker.
func BenchmarkConvolve(b *testing.B) {
	src := noiseImage(320, 180, 7)
	dst := NewGray(src.W, src.H)
	k := GaussianKernel(2)
	for _, bc := range []struct {
		name string
		pass func(dst, src *Gray, k []float32, workers int)
	}{
		{"H", convolveH}, {"V", convolveV}, {"refH", refConvolveH}, {"refV", refConvolveV},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.pass(dst, src, k, 1)
			}
		})
	}
}
