package trace

import (
	"image/png"
	"os"
	"path/filepath"
	"testing"

	"github.com/edge-mar/scatter/internal/vision/sift"
)

func smallGen() *Generator {
	return NewGenerator(Config{W: 160, H: 90, FPS: 10, Seconds: 1, Seed: 7})
}

func TestDefaults(t *testing.T) {
	g := NewGenerator(Config{})
	w, h := g.Size()
	if w != 1280 || h != 720 {
		t.Errorf("default size = %dx%d, want 1280x720", w, h)
	}
	if g.FPS() != 30 {
		t.Errorf("default FPS = %d", g.FPS())
	}
	if g.NumFrames() != 300 {
		t.Errorf("default frames = %d, want 300 (10 s @ 30 FPS)", g.NumFrames())
	}
}

func TestFrameDeterministic(t *testing.T) {
	g1 := smallGen()
	g2 := smallGen()
	f1 := g1.Frame(3)
	f2 := g2.Frame(3)
	for i := range f1.Pix {
		if f1.Pix[i] != f2.Pix[i] {
			t.Fatalf("frame 3 differs at byte %d between identical generators", i)
		}
	}
}

func TestFramesDiffer(t *testing.T) {
	g := smallGen()
	f0 := g.Frame(0)
	f5 := g.Frame(5)
	diff := 0
	for i := range f0.Pix {
		if f0.Pix[i] != f5.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("frames 0 and 5 are identical; camera motion/noise missing")
	}
}

func TestFramePanicsOutOfRange(t *testing.T) {
	g := smallGen()
	for _, i := range []int{-1, g.NumFrames()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Frame(%d) did not panic", i)
				}
			}()
			g.Frame(i)
		}()
	}
}

func TestGroundTruthVisibility(t *testing.T) {
	g := NewGenerator(Config{W: 320, H: 180, FPS: 10, Seconds: 1, Seed: 7})
	gt := g.GroundTruth(0)
	if len(gt) != NumObjects {
		t.Fatalf("ground truth has %d objects, want %d", len(gt), NumObjects)
	}
	visible := 0
	for _, p := range gt {
		if p.Visible {
			visible++
		}
		if p.Scale <= 0 {
			t.Errorf("object %d scale = %v", p.ObjectID, p.Scale)
		}
	}
	if visible == 0 {
		t.Error("no objects visible in frame 0")
	}
}

func TestReferenceImages(t *testing.T) {
	g := smallGen()
	refs := g.ReferenceImages()
	if len(refs) != NumObjects {
		t.Fatalf("got %d reference images, want %d", len(refs), NumObjects)
	}
	for _, r := range refs {
		if r.Img.W < 8 || r.Img.H < 8 {
			t.Errorf("%s reference image too small: %dx%d", r.Name, r.Img.W, r.Img.H)
		}
		// Reference images must contain contrast (texture) for SIFT.
		lo, hi := float32(1), float32(0)
		for _, v := range r.Img.Pix {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo < 0.2 {
			t.Errorf("%s reference image has low contrast: [%v, %v]", r.Name, lo, hi)
		}
	}
}

func TestObjectName(t *testing.T) {
	if ObjectName(ObjectMonitor) != "monitor" ||
		ObjectName(ObjectKeyboard) != "keyboard" ||
		ObjectName(ObjectMug) != "mug" {
		t.Error("object names wrong")
	}
	if ObjectName(42) != "object-42" {
		t.Errorf("unknown object name = %s", ObjectName(42))
	}
}

func TestFrameBytes(t *testing.T) {
	if FrameBytes(false) != 180<<10 {
		t.Errorf("stateful frame bytes = %d", FrameBytes(false))
	}
	if FrameBytes(true) != 480<<10 {
		t.Errorf("stateless frame bytes = %d", FrameBytes(true))
	}
	if FrameBytes(true) <= FrameBytes(false) {
		t.Error("stateless frames must be larger (carry sift state)")
	}
}

// The reference images must yield SIFT features — otherwise the pipeline's
// recognition path is vacuous.
func TestReferenceImagesYieldFeatures(t *testing.T) {
	g := NewGenerator(Config{W: 320, H: 180, FPS: 10, Seconds: 1, Seed: 7})
	det := sift.New(sift.Defaults())
	for _, r := range g.ReferenceImages() {
		feats := det.Detect(r.Img)
		if len(feats) < 5 {
			t.Errorf("%s reference image yields only %d features", r.Name, len(feats))
		}
	}
}

// Ground truth consistency: sampling a rendered frame at the projected
// object center should see object texture, not background, for visible
// objects well inside the frame.
func TestGroundTruthAlignsWithRender(t *testing.T) {
	g := NewGenerator(Config{W: 640, H: 360, FPS: 10, Seconds: 1, Seed: 7, Noise: 0.0001})
	frame := g.GrayFrame(0)
	refs := g.ReferenceImages()
	for _, p := range g.GroundTruth(0) {
		if !p.Visible {
			continue
		}
		ref := refs[p.ObjectID].Img
		// Object center in reference coordinates -> frame coordinates.
		cx := p.OffX + p.Scale*float64(ref.W)/2
		cy := p.OffY + p.Scale*float64(ref.H)/2
		if cx < 2 || cy < 2 || cx > float64(frame.W-3) || cy > float64(frame.H-3) {
			continue
		}
		got := float64(frame.BilinearAt(cx, cy))
		want := float64(ref.BilinearAt(float64(ref.W)/2, float64(ref.H)/2))
		// Grayscale weighting shifts color channels; allow loose tolerance
		// but require correlation (both dark or both bright).
		if (want > 0.5) != (got > 0.25) && (want < 0.5) != (got < 0.75) {
			t.Errorf("object %s: center luminance %v vs reference %v look inconsistent",
				ObjectName(p.ObjectID), got, want)
		}
	}
}

func BenchmarkFrame720p(b *testing.B) {
	g := NewGenerator(Config{Seed: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Frame(i % g.NumFrames())
	}
}

func BenchmarkFrame180p(b *testing.B) {
	g := NewGenerator(Config{W: 320, H: 180, Seed: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Frame(i % g.NumFrames())
	}
}

func TestWritePNG(t *testing.T) {
	g := NewGenerator(Config{W: 64, H: 36, FPS: 5, Seconds: 1, Seed: 7})
	dir := t.TempDir()
	rgbPath := filepath.Join(dir, "frame.png")
	if err := WritePNG(g.Frame(0), rgbPath); err != nil {
		t.Fatal(err)
	}
	grayPath := filepath.Join(dir, "gray.png")
	if err := WriteGrayPNG(g.GrayFrame(0), grayPath); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{rgbPath, grayPath} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if img.Bounds().Dx() != 64 || img.Bounds().Dy() != 36 {
			t.Errorf("%s: bounds = %v", p, img.Bounds())
		}
	}
	// Unwritable path errors.
	if err := WritePNG(g.Frame(0), filepath.Join(dir, "nope", "x.png")); err == nil {
		t.Error("write into missing dir succeeded")
	}
}

func TestMotionProfiles(t *testing.T) {
	static := NewGenerator(Config{W: 96, H: 54, FPS: 10, Seconds: 1, Seed: 7, Motion: MotionStatic, Noise: 0.0001})
	// Static camera: ground truth placement identical across frames.
	a := static.GroundTruth(0)
	b := static.GroundTruth(9)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("static camera moved object %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Shaky camera drifts more frame-to-frame than the smooth profile.
	drift := func(m Motion) float64 {
		g := NewGenerator(Config{W: 96, H: 54, FPS: 30, Seconds: 1, Seed: 7, Motion: m})
		total := 0.0
		prev := g.GroundTruth(0)
		for i := 1; i < 30; i++ {
			cur := g.GroundTruth(i)
			dx := cur[0].OffX - prev[0].OffX
			dy := cur[0].OffY - prev[0].OffY
			total += dx*dx + dy*dy
			prev = cur
		}
		return total
	}
	if drift(MotionShaky) <= drift(MotionSmooth) {
		t.Error("shaky profile does not move more than smooth")
	}
}

// FPS returns the clip frame rate.
func (g *Generator) FPS() int { return g.cfg.FPS }

// Size returns the frame dimensions.
func (g *Generator) Size() (w, h int) { return g.cfg.W, g.cfg.H }
