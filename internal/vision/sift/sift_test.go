package sift

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/edge-mar/scatter/internal/vision/imgproc"
)

// testPattern renders a deterministic textured image with strong corners:
// a grid of filled squares at varying intensities plus a diagonal gradient.
func testPattern(w, h int) *imgproc.Gray {
	g := imgproc.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.1 + 0.05*float32(x+y)/float32(w+h)
			g.Set(x, y, v)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		bx := 8 + rng.Intn(w-24)
		by := 8 + rng.Intn(h-24)
		side := 6 + rng.Intn(10)
		val := 0.5 + 0.5*rng.Float32()
		for y := by; y < by+side && y < h; y++ {
			for x := bx; x < bx+side && x < w; x++ {
				g.Set(x, y, val)
			}
		}
	}
	return g
}

func TestDetectFindsFeaturesOnTexturedImage(t *testing.T) {
	img := testPattern(96, 96)
	d := New(Defaults())
	feats := d.Detect(img)
	if len(feats) == 0 {
		t.Fatal("no features detected on textured image")
	}
	for i, f := range feats {
		if f.X < 0 || f.X >= float64(img.W) || f.Y < 0 || f.Y >= float64(img.H) {
			t.Errorf("feature %d at (%v, %v) outside image", i, f.X, f.Y)
		}
		if f.Sigma <= 0 {
			t.Errorf("feature %d has non-positive sigma %v", i, f.Sigma)
		}
		if f.Orientation < -math.Pi-1e-9 || f.Orientation > math.Pi+1e-9 {
			t.Errorf("feature %d orientation %v outside [-pi, pi]", i, f.Orientation)
		}
	}
}

func TestDetectEmptyOnFlatImage(t *testing.T) {
	img := imgproc.NewGray(64, 64)
	for i := range img.Pix {
		img.Pix[i] = 0.5
	}
	d := New(Defaults())
	if feats := d.Detect(img); len(feats) != 0 {
		t.Errorf("flat image produced %d features, want 0", len(feats))
	}
}

func TestDetectSortedByResponse(t *testing.T) {
	feats := New(Defaults()).Detect(testPattern(96, 96))
	for i := 1; i < len(feats); i++ {
		if feats[i].Response > feats[i-1].Response {
			t.Fatalf("features not sorted by response at %d: %v > %v",
				i, feats[i].Response, feats[i-1].Response)
		}
	}
}

func TestMaxFeaturesCap(t *testing.T) {
	cfg := Defaults()
	cfg.MaxFeatures = 5
	feats := New(cfg).Detect(testPattern(96, 96))
	if len(feats) > 5 {
		t.Errorf("MaxFeatures=5 returned %d features", len(feats))
	}
}

func TestDescriptorsNormalized(t *testing.T) {
	feats := New(Defaults()).Detect(testPattern(96, 96))
	if len(feats) == 0 {
		t.Skip("no features")
	}
	for i, f := range feats {
		var norm float64
		for _, v := range f.Desc {
			if v < 0 {
				t.Fatalf("feature %d descriptor has negative component %v", i, v)
			}
			if v > 0.21 { // 0.2 clamp with slight renormalization headroom
				// After renormalization components can exceed 0.2 slightly.
				if v > 0.5 {
					t.Fatalf("feature %d descriptor component %v too large", i, v)
				}
			}
			norm += float64(v) * float64(v)
		}
		if math.Abs(math.Sqrt(norm)-1) > 1e-4 {
			t.Fatalf("feature %d descriptor norm = %v, want 1", i, math.Sqrt(norm))
		}
	}
}

func TestDetectionDeterministic(t *testing.T) {
	img := testPattern(96, 96)
	a := New(Defaults()).Detect(img)
	b := New(Defaults()).Detect(img)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic feature count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %d differs between identical runs", i)
		}
	}
}

// Descriptors should be stable under small intensity scaling (illumination
// invariance from normalization).
func TestIlluminationInvariance(t *testing.T) {
	img := testPattern(96, 96)
	bright := imgproc.NewGray(img.W, img.H)
	for i, v := range img.Pix {
		bright.Pix[i] = v * 0.7
	}
	a := New(Defaults()).Detect(img)
	b := New(Defaults()).Detect(bright)
	if len(a) == 0 || len(b) == 0 {
		t.Skip("insufficient features")
	}
	// Match each feature in a to the nearest in b by position; descriptors
	// should be close.
	matched := 0
	for _, fa := range a {
		var best *Feature
		bestD := math.Inf(1)
		for j := range b {
			fb := &b[j]
			dx := fa.X - fb.X
			dy := fa.Y - fb.Y
			d := dx*dx + dy*dy
			if d < bestD {
				bestD = d
				best = fb
			}
		}
		if best == nil || bestD > 4 {
			continue
		}
		if L2(&fa.Desc, &best.Desc) < 0.4 {
			matched++
		}
	}
	if matched == 0 {
		t.Error("no descriptor survived a brightness change")
	}
}

func TestL2Distance(t *testing.T) {
	var a, b Descriptor
	a[0] = 1
	b[1] = 1
	if got := L2(&a, &b); math.Abs(got-math.Sqrt2) > 1e-6 {
		t.Errorf("L2 = %v, want sqrt(2)", got)
	}
	if got := L2(&a, &a); got != 0 {
		t.Errorf("L2 self-distance = %v, want 0", got)
	}
}

// TestL2SqMatchesL2 pins the deferred-sqrt identity the ratio test relies
// on: L2 must be exactly math.Sqrt(L2Sq) — same summation order,
// bit-identical — so selecting on L2Sq and sqrt-ing the survivors
// reproduces per-pair L2 results exactly.
func TestL2SqMatchesL2(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var a, b Descriptor
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		sq := L2Sq(&a, &b)
		if got := L2(&a, &b); got != math.Sqrt(sq) {
			t.Fatalf("L2 = %v, Sqrt(L2Sq) = %v — must be bit-identical", got, math.Sqrt(sq))
		}
		var want float64
		for i := range a {
			d := float64(a[i] - b[i])
			want += d * d
		}
		if sq != want {
			t.Fatalf("L2Sq = %v, direct sum = %v", sq, want)
		}
	}
}

func TestNewFillsDefaults(t *testing.T) {
	d := New(Config{})
	if d.cfg.Levels != 3 || d.cfg.SigmaBase != 1.6 {
		t.Errorf("New(Config{}) did not apply defaults: %+v", d.cfg)
	}
	d = New(Config{Levels: 5, ContrastThreshold: 0.01})
	if d.cfg.Levels != 5 || d.cfg.ContrastThreshold != 0.01 {
		t.Errorf("New did not honour overrides: %+v", d.cfg)
	}
}

// Property: normalizeDescriptor always yields unit norm (or all-zero input
// stays zero) and components bounded by ~0.2 after clamping headroom.
func TestNormalizeDescriptorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d Descriptor
		for i := range d {
			d[i] = rng.Float32() * 10
		}
		normalizeDescriptor(&d)
		var norm float64
		for _, v := range d {
			norm += float64(v) * float64(v)
		}
		return math.Abs(math.Sqrt(norm)-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeZeroDescriptor(t *testing.T) {
	var d Descriptor
	normalizeDescriptor(&d)
	for _, v := range d {
		if v != 0 {
			t.Fatal("zero descriptor modified by normalization")
		}
	}
}

// Property: trilinear accumulation conserves total weight when bins are
// interior (no boundary clipping). computeDescriptor spreads through
// simd.DescRow and normalizes, so the property is checked on the reference
// loop that TestDescribeMatchesReference pins it to.
func TestTrilinearConservesWeight(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d Descriptor
		// Interior coordinates away from spatial boundaries.
		bx := 0.5 + rng.Float64()*2 // in [0.5, 2.5]
		by := 0.5 + rng.Float64()*2
		ob := rng.Float64() * descOriBins
		refTrilinearAccumulate(&d, bx, by, ob, 1.0)
		var sum float64
		for _, v := range d {
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The parallel kernel contract: any worker count produces bit-identical
// features to the serial path, including keypoint order.
func TestDetectParallelMatchesSerial(t *testing.T) {
	img := testPattern(128, 128)
	serialCfg := Defaults()
	serialCfg.Workers = 1
	serial := New(serialCfg).Detect(img)
	if len(serial) == 0 {
		t.Fatal("no features on textured image")
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := Defaults()
		cfg.Workers = workers
		par := New(cfg).Detect(img)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d features, serial %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: feature %d differs from serial", workers, i)
			}
		}
	}
}

func BenchmarkDetect96(b *testing.B) {
	img := testPattern(96, 96)
	d := New(Defaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(img)
	}
}

// BenchmarkDetect320x180 is the per-kernel scaling row for the frame size
// the pipeline actually runs; compare with -cpu 1,4,8 (Workers defaults to
// GOMAXPROCS, which -cpu sets per row).
func BenchmarkDetect320x180(b *testing.B) {
	img := testPattern(320, 180)
	d := New(Defaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(img)
	}
}

// BenchmarkDetectClip is Detect as the sift service runs it: clip frame 0,
// capped at 150 features. Unlike testPattern's flat squares, the clip has
// texture, so the extrema scan and the gradient patches do real work.
func BenchmarkDetectClip(b *testing.B) {
	img := clipFrames(b)[0]
	cfg := Defaults()
	cfg.MaxFeatures = 150
	d := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(img)
	}
}

// BenchmarkDescribeClip is describe alone — orientations and descriptors
// for every candidate of clip frame 0 — as Detect runs it; ns/desc is the
// time per descriptor.
func BenchmarkDescribeClip(b *testing.B) {
	img := clipFrames(b)[0]
	cfg := Defaults()
	cfg.MaxFeatures = 150
	d := New(cfg)
	p, cands := d.scan(img)
	descs := len(d.describe(p, cands))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.describe(p, cands)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*descs), "ns/desc")
}

// L2 returns the Euclidean distance between two descriptors.
func L2(a, b *Descriptor) float64 {
	return math.Sqrt(L2Sq(a, b))
}

// L2Sq returns the squared Euclidean distance between two descriptors:
// each difference taken in float32, squared in float64 and added in index
// order from zero — the sum simd.SqDist16 computes per row for the ratio
// test.
func L2Sq(a, b *Descriptor) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i] - b[i])
		sum += d * d
	}
	return sum
}
