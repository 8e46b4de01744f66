package imgproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGrayPanicsOnInvalidSize(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-3, 4}, {4, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGray(%d, %d) did not panic", dims[0], dims[1])
				}
			}()
			NewGray(dims[0], dims[1])
		}()
	}
}

func TestAtClampsBorders(t *testing.T) {
	g := NewGray(4, 3)
	g.Set(0, 0, 1)
	g.Set(3, 2, 2)
	if got := g.At(-5, -5); got != 1 {
		t.Errorf("At(-5,-5) = %v, want 1 (clamped to origin)", got)
	}
	if got := g.At(100, 100); got != 2 {
		t.Errorf("At(100,100) = %v, want 2 (clamped to far corner)", got)
	}
}

func TestSetIgnoresOutOfBounds(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(-1, 0, 9)
	g.Set(0, -1, 9)
	g.Set(2, 0, 9)
	g.Set(0, 2, 9)
	for i, v := range g.Pix {
		if v != 0 {
			t.Errorf("pixel %d modified by out-of-bounds Set: %v", i, v)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := NewGray(3, 3)
	g.Set(1, 1, 0.5)
	c := g.Clone()
	c.Set(1, 1, 0.9)
	if g.At(1, 1) != 0.5 {
		t.Error("Clone shares pixel storage with original")
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1.0, 1.6, 3.2} {
		k := GaussianKernel(sigma)
		if len(k)%2 == 0 {
			t.Errorf("sigma=%v: kernel length %d is even", sigma, len(k))
		}
		var sum float64
		for _, v := range k {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("sigma=%v: kernel sums to %v, want 1", sigma, sum)
		}
		// Symmetry.
		for i := 0; i < len(k)/2; i++ {
			if k[i] != k[len(k)-1-i] {
				t.Errorf("sigma=%v: kernel not symmetric at %d", sigma, i)
			}
		}
		// Peak at center.
		mid := len(k) / 2
		for i, v := range k {
			if v > k[mid] {
				t.Errorf("sigma=%v: kernel[%d]=%v exceeds center %v", sigma, i, v, k[mid])
			}
		}
	}
}

func TestGaussianKernelPanicsOnNonPositiveSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GaussianKernel(0) did not panic")
		}
	}()
	GaussianKernel(0)
}

func TestGaussianBlurPreservesConstantImage(t *testing.T) {
	g := NewGray(16, 12)
	for i := range g.Pix {
		g.Pix[i] = 0.37
	}
	b := GaussianBlur(g, 1.6)
	for i, v := range b.Pix {
		if math.Abs(float64(v)-0.37) > 1e-5 {
			t.Fatalf("blurred constant image has pixel %d = %v, want 0.37", i, v)
		}
	}
}

func TestGaussianBlurSmooths(t *testing.T) {
	// An impulse should spread: center decreases, neighbors increase.
	g := NewGray(15, 15)
	g.Set(7, 7, 1)
	b := GaussianBlur(g, 1.0)
	if b.At(7, 7) >= 1 {
		t.Errorf("center after blur = %v, want < 1", b.At(7, 7))
	}
	if b.At(8, 7) <= 0 {
		t.Errorf("neighbor after blur = %v, want > 0", b.At(8, 7))
	}
	// Total mass approximately preserved away from borders.
	var sum float64
	for _, v := range b.Pix {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("blur mass = %v, want ~1", sum)
	}
}

func TestDownsampleIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DownsampleInto into a 3x3 image of an 8x6 one did not panic")
		}
	}()
	DownsampleInto(NewGray(3, 3), NewGray(8, 6))
}

func TestDownsampleHalves(t *testing.T) {
	g := NewGray(8, 6)
	for i := range g.Pix {
		g.Pix[i] = float32(i)
	}
	d := downsample(g)
	if d.W != 4 || d.H != 3 {
		t.Fatalf("Downsample dims = %dx%d, want 4x3", d.W, d.H)
	}
	// First output pixel is the mean of the top-left 2x2 block.
	want := (g.At(0, 0) + g.At(1, 0) + g.At(0, 1) + g.At(1, 1)) / 4
	if d.At(0, 0) != want {
		t.Errorf("Downsample(0,0) = %v, want %v", d.At(0, 0), want)
	}
}

func TestDownsampleMinimumSize(t *testing.T) {
	g := NewGray(1, 1)
	d := downsample(g)
	if d.W != 1 || d.H != 1 {
		t.Errorf("Downsample of 1x1 = %dx%d, want 1x1", d.W, d.H)
	}
}

func TestResizeIdentity(t *testing.T) {
	g := NewGray(7, 5)
	for i := range g.Pix {
		g.Pix[i] = float32(i) / 35
	}
	r := Resize(g, 7, 5)
	for i := range g.Pix {
		if math.Abs(float64(r.Pix[i]-g.Pix[i])) > 1e-5 {
			t.Fatalf("identity resize changed pixel %d: %v -> %v", i, g.Pix[i], r.Pix[i])
		}
	}
}

func TestResizePreservesConstant(t *testing.T) {
	g := NewGray(10, 10)
	for i := range g.Pix {
		g.Pix[i] = 0.6
	}
	r := Resize(g, 23, 7)
	if r.W != 23 || r.H != 7 {
		t.Fatalf("resize dims = %dx%d", r.W, r.H)
	}
	for i, v := range r.Pix {
		if math.Abs(float64(v)-0.6) > 1e-5 {
			t.Fatalf("resized constant image pixel %d = %v", i, v)
		}
	}
}

func TestBilinearAtInterpolates(t *testing.T) {
	g := NewGray(2, 1)
	g.Set(0, 0, 0)
	g.Set(1, 0, 1)
	if got := g.BilinearAt(0.5, 0); math.Abs(float64(got)-0.5) > 1e-6 {
		t.Errorf("BilinearAt(0.5, 0) = %v, want 0.5", got)
	}
	if got := g.BilinearAt(0.25, 0); math.Abs(float64(got)-0.25) > 1e-6 {
		t.Errorf("BilinearAt(0.25, 0) = %v, want 0.25", got)
	}
}

func TestGrayscaleWeights(t *testing.T) {
	m := NewRGB(1, 1)
	m.Set(0, 0, 255, 0, 0)
	g := Grayscale(m)
	if math.Abs(float64(g.At(0, 0))-0.299) > 1e-4 {
		t.Errorf("pure red luma = %v, want 0.299", g.At(0, 0))
	}
	m.Set(0, 0, 255, 255, 255)
	g = Grayscale(m)
	if math.Abs(float64(g.At(0, 0))-1) > 1e-4 {
		t.Errorf("white luma = %v, want 1", g.At(0, 0))
	}
}

func TestRGBAtClamps(t *testing.T) {
	m := NewRGB(2, 2)
	m.Set(0, 0, 1, 2, 3)
	r, g, b := m.AtRGB(-1, -1)
	if r != 1 || g != 2 || b != 3 {
		t.Errorf("AtRGB(-1,-1) = %d,%d,%d want 1,2,3", r, g, b)
	}
}

// Property: blurring never increases the max pixel value and never
// decreases the min (a convex combination of inputs).
func TestBlurBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGray(12, 9)
		lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
		for i := range g.Pix {
			g.Pix[i] = rng.Float32()
			if g.Pix[i] < lo {
				lo = g.Pix[i]
			}
			if g.Pix[i] > hi {
				hi = g.Pix[i]
			}
		}
		b := GaussianBlur(g, 1.2)
		for _, v := range b.Pix {
			if v < lo-1e-5 || v > hi+1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: downsampling halves the dimensions (floor) and keeps the
// output values within the input range.
func TestDownsampleRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(30)
		h := 2 + rng.Intn(30)
		g := NewGray(w, h)
		for i := range g.Pix {
			g.Pix[i] = rng.Float32()
		}
		d := downsample(g)
		if d.W != w/2 || d.H != h/2 {
			return false
		}
		for _, v := range d.Pix {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// downsample returns src halved by DownsampleInto into a new image.
func downsample(src *Gray) *Gray {
	dst := NewGray(max(src.W/2, 1), max(src.H/2, 1))
	DownsampleInto(dst, src)
	return dst
}

// Clone returns a deep copy of the image.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// GaussianBlur returns a new image blurred with a separable Gaussian of the
// given sigma. The source image is not modified.
func GaussianBlur(src *Gray, sigma float64) *Gray {
	return GaussianBlurWorkers(src, sigma, 0)
}

// GaussianBlurWorkers is GaussianBlur with an explicit worker count for
// the row-parallel convolution passes (0 = GOMAXPROCS, 1 = serial). The
// result is bit-identical at any setting — each output pixel is computed
// independently.
func GaussianBlurWorkers(src *Gray, sigma float64, workers int) *Gray {
	dst := NewGray(src.W, src.H)
	BlurInto(dst, NewGray(src.W, src.H), src, GaussianKernel(sigma), workers)
	return dst
}
