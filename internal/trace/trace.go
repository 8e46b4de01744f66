// Package trace generates the deterministic synthetic video clip used in
// place of the paper's pre-recorded 10 s, 30 FPS, 720p smartphone capture
// of a workplace environment. The scene contains the same object classes
// the paper describes — a monitor, a keyboard, and a table (plus a mug for
// additional texture) — rendered with stable per-object textures so SIFT
// features repeat across frames, and a slowly panning/zooming camera with
// per-frame sensor noise so consecutive frames differ realistically.
//
// Because the renderer is seeded, every experiment run processes exactly
// the same pixels, giving the run-to-run repeatability the paper obtained
// by replaying a recording. It also provides ground-truth object placement
// per frame, which the vision tests use to validate pose estimation.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/edge-mar/scatter/internal/vision/imgproc"
)

// Object identifiers in the workplace scene.
const (
	ObjectMonitor = iota
	ObjectKeyboard
	ObjectMug
	NumObjects
)

// ObjectName returns a human-readable object name.
func ObjectName(id int) string {
	switch id {
	case ObjectMonitor:
		return "monitor"
	case ObjectKeyboard:
		return "keyboard"
	case ObjectMug:
		return "mug"
	default:
		return fmt.Sprintf("object-%d", id)
	}
}

// Motion selects the camera-movement profile of the clip.
type Motion int

// Camera motion profiles.
const (
	// MotionSmooth is the default handheld drift: slow sinusoidal pan
	// and gentle zoom, matching the paper's recorded clip.
	MotionSmooth Motion = iota
	// MotionStatic locks the camera (tripod): every frame differs only
	// by sensor noise.
	MotionStatic
	// MotionShaky adds high-frequency hand tremor on top of the drift —
	// the harder tracking case of a walking user.
	MotionShaky
)

// Config controls clip generation. The zero value is completed by
// NewGenerator with the paper's parameters (1280×720, 30 FPS, 10 s).
type Config struct {
	W, H    int
	FPS     int
	Seconds int
	Seed    int64
	// Noise is the per-pixel additive sensor-noise amplitude in 8-bit
	// counts (default 3).
	Noise float64
	// Motion selects the camera profile (default MotionSmooth).
	Motion Motion
}

// Placement is the ground-truth location of an object in a frame: the
// object's reference image maps into the frame by scale then translation.
type Placement struct {
	ObjectID int
	// Scale and offset: frameX = OffX + Scale*refX, frameY = OffY + Scale*refY.
	Scale      float64
	OffX, OffY float64
	// Visible reports whether the object is at least partly in frame.
	Visible bool
}

// ReferenceImage is a canonical (frontal, unoccluded) view of one object,
// used to build the recognition database.
type ReferenceImage struct {
	ObjectID int
	Name     string
	Img      *imgproc.Gray
}

// object describes one scene object in world coordinates.
type object struct {
	id         int
	x, y, w, h float64 // world-space rectangle
	texSeed    int64
}

// Generator renders the clip. It is safe for concurrent use after
// construction: rendering reads only immutable state plus per-call RNGs.
type Generator struct {
	cfg     Config
	objects []object
}

// NewGenerator builds a generator, applying defaults for unset fields.
func NewGenerator(cfg Config) *Generator {
	if cfg.W <= 0 {
		cfg.W = 1280
	}
	if cfg.H <= 0 {
		cfg.H = 720
	}
	if cfg.FPS <= 0 {
		cfg.FPS = 30
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Noise == 0 {
		cfg.Noise = 3
	}
	// World space spans [0, 1000] × [0, 600]; objects sized relative to it.
	g := &Generator{cfg: cfg}
	g.objects = []object{
		{id: ObjectMonitor, x: 280, y: 80, w: 380, h: 240, texSeed: cfg.Seed*31 + 1},
		{id: ObjectKeyboard, x: 300, y: 380, w: 340, h: 120, texSeed: cfg.Seed*31 + 2},
		{id: ObjectMug, x: 720, y: 360, w: 90, h: 110, texSeed: cfg.Seed*31 + 3},
	}
	return g
}

// NumFrames returns the total frame count of the clip.
func (g *Generator) NumFrames() int { return g.cfg.FPS * g.cfg.Seconds }

// camera returns the camera transform for frame i: world point (wx, wy)
// appears at pixel ((wx-cx)*zoom + W/2, (wy-cy)*zoom + H/2).
func (g *Generator) camera(i int) (cx, cy, zoom float64) {
	t := float64(i) / float64(g.cfg.FPS) // seconds
	switch g.cfg.Motion {
	case MotionStatic:
		return 500, 300, float64(g.cfg.W) / 1000
	case MotionShaky:
		// Handheld drift plus high-frequency tremor.
		cx = 500 + 60*math.Sin(2*math.Pi*t/8) + 8*math.Sin(2*math.Pi*t*4.7)
		cy = 300 + 30*math.Cos(2*math.Pi*t/11) + 6*math.Sin(2*math.Pi*t*6.1)
		zoom = float64(g.cfg.W) / 1000 * (1 + 0.08*math.Sin(2*math.Pi*t/9) + 0.01*math.Sin(2*math.Pi*t*5.3))
		return cx, cy, zoom
	default:
		// Slow sinusoidal pan around the scene center with gentle zoom,
		// as a handheld phone would drift.
		cx = 500 + 60*math.Sin(2*math.Pi*t/8)
		cy = 300 + 30*math.Cos(2*math.Pi*t/11)
		zoom = float64(g.cfg.W) / 1000 * (1 + 0.08*math.Sin(2*math.Pi*t/9))
		return cx, cy, zoom
	}
}

// texture returns the object's surface intensity (0..1) at normalized
// object coordinates (u, v in [0, 1]). Textures are procedural and
// deterministic per object so features are stable across frames.
func (o *object) texture(u, v float64) float64 {
	switch o.id {
	case ObjectMonitor:
		// Dark bezel with a bright screen containing window-like blocks.
		if u < 0.05 || u > 0.95 || v < 0.06 || v > 0.94 {
			return 0.08
		}
		// A bright "taskbar" of icon blocks along the bottom gives the
		// screen strong, distinctive corners.
		if v > 0.82 {
			gx := int(u * 16)
			return 0.2 + 0.75*hash2(o.texSeed*7+5, gx, 0)
		}
		// Screen content: a grid of "windows" with per-cell brightness
		// and dark borders between the cells (corner features).
		const cols, rows = 7.0, 4.0
		fu := (u - 0.05) / 0.90 * cols
		fv := (v - 0.06) / 0.76 * rows
		iu, iv := math.Floor(fu), math.Floor(fv)
		if fu-iu < 0.08 || fv-iv < 0.10 {
			return 0.15
		}
		h := hash2(o.texSeed, int(iu), int(iv))
		base := 0.35 + 0.6*h
		// Text-like horizontal striping inside each window.
		if int(v*48)%4 == 0 {
			base *= 0.7
		}
		return base
	case ObjectKeyboard:
		// Grid of keys with gaps and per-key brightness.
		cols, rows := 14.0, 5.0
		fu := u * cols
		fv := v * rows
		iu, iv := math.Floor(fu), math.Floor(fv)
		// Gap between keys.
		if fu-iu < 0.12 || fv-iv < 0.18 {
			return 0.1
		}
		return 0.45 + 0.45*hash2(o.texSeed, int(iu), int(iv))
	case ObjectMug:
		// Cylindrical shading with a patterned logo band (checker-like
		// blocks so the mug carries corner features).
		shade := 0.5 + 0.35*math.Sin(u*math.Pi)
		if v > 0.12 && v < 0.78 {
			gx := int(u * 9)
			gy := int((v - 0.12) / 0.66 * 6)
			return shade * (0.15 + 0.8*hash2(o.texSeed, gx, gy))
		}
		return 0.55 * shade
	default:
		return 0.5
	}
}

// hash2 is a deterministic hash to [0, 1) from a seed and 2-D cell index.
func hash2(seed int64, x, y int) float64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(x)*0xBF58476D1CE4E5B9 + uint64(y)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 27
	return float64(h%10000) / 10000
}

// worldColor returns the RGB color of world point (wx, wy).
func (g *Generator) worldColor(wx, wy float64) (r, gc, b float64) {
	// Background: wall above y=330, wooden table below.
	if wy < 330 {
		v := 0.75 - 0.0002*wy
		r, gc, b = v*0.95, v*0.95, v
	} else {
		grain := 0.05 * math.Sin(wx*0.13+wy*0.02)
		v := 0.45 + grain
		r, gc, b = v*1.1, v*0.8, v*0.55
	}
	for i := range g.objects {
		o := &g.objects[i]
		if wx < o.x || wx >= o.x+o.w || wy < o.y || wy >= o.y+o.h {
			continue
		}
		u := (wx - o.x) / o.w
		v := (wy - o.y) / o.h
		t := o.texture(u, v)
		switch o.id {
		case ObjectMonitor:
			r, gc, b = t*0.85, t*0.9, t
		case ObjectKeyboard:
			r, gc, b = t, t, t*0.95
		case ObjectMug:
			r, gc, b = t, t*0.75, t*0.6
		}
	}
	return r, gc, b
}

// Frame renders frame i as an RGB image. It panics if i is out of range.
func (g *Generator) Frame(i int) *imgproc.RGB {
	if i < 0 || i >= g.NumFrames() {
		panic(fmt.Sprintf("trace: frame %d out of range [0, %d)", i, g.NumFrames()))
	}
	cx, cy, zoom := g.camera(i)
	img := imgproc.NewRGB(g.cfg.W, g.cfg.H)
	noise := rand.New(rand.NewSource(g.cfg.Seed ^ int64(i)*0x5DEECE66D))
	halfW := float64(g.cfg.W) / 2
	halfH := float64(g.cfg.H) / 2
	for y := 0; y < g.cfg.H; y++ {
		wy := (float64(y)-halfH)/zoom + cy
		for x := 0; x < g.cfg.W; x++ {
			wx := (float64(x)-halfW)/zoom + cx
			r, gc, b := g.worldColor(wx, wy)
			n := (noise.Float64() - 0.5) * 2 * g.cfg.Noise / 255
			img.Set(x, y, clamp8(r+n), clamp8(gc+n), clamp8(b+n))
		}
	}
	return img
}

// GrayFrame renders frame i and converts it to grayscale — what primary
// produces after its grayscaling step.
func (g *Generator) GrayFrame(i int) *imgproc.Gray {
	return imgproc.Grayscale(g.Frame(i))
}

func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

// GroundTruth returns the placement of every scene object in frame i.
func (g *Generator) GroundTruth(i int) []Placement {
	cx, cy, zoom := g.camera(i)
	halfW := float64(g.cfg.W) / 2
	halfH := float64(g.cfg.H) / 2
	out := make([]Placement, 0, len(g.objects))
	for _, o := range g.objects {
		// Reference image has refScale pixels per world unit (see
		// ReferenceImages); composition gives frame = off + scale*ref.
		scale := zoom / refScale
		offX := (o.x-cx)*zoom + halfW
		offY := (o.y-cy)*zoom + halfH
		frameW := o.w * zoom
		frameH := o.h * zoom
		visible := offX+frameW > 0 && offX < float64(g.cfg.W) &&
			offY+frameH > 0 && offY < float64(g.cfg.H)
		out = append(out, Placement{
			ObjectID: o.id,
			Scale:    scale,
			OffX:     offX,
			OffY:     offY,
			Visible:  visible,
		})
	}
	return out
}

// refScale is the resolution of reference images in pixels per world unit.
const refScale = 0.45

// ReferenceImages renders the canonical training views of each object —
// the "reference images in the training dataset" that lsh/matching
// recognize against.
func (g *Generator) ReferenceImages() []ReferenceImage {
	out := make([]ReferenceImage, 0, len(g.objects))
	for i := range g.objects {
		o := &g.objects[i]
		w := int(math.Round(o.w * refScale))
		h := int(math.Round(o.h * refScale))
		if w < 8 {
			w = 8
		}
		if h < 8 {
			h = 8
		}
		img := imgproc.NewGray(w, h)
		for y := 0; y < h; y++ {
			v := float64(y) / float64(h)
			for x := 0; x < w; x++ {
				u := float64(x) / float64(w)
				img.Set(x, y, float32(o.texture(u, v)))
			}
		}
		out = append(out, ReferenceImage{ObjectID: o.id, Name: ObjectName(o.id), Img: img})
	}
	return out
}

// FrameBytes returns the nominal encoded size in bytes of a frame as it
// travels between scAtteR services. The paper reports ≈180 KB for the
// standard pipeline payload and ≈480 KB once sift's state rides inside
// the frame (scAtteR++).
func FrameBytes(stateless bool) int {
	if stateless {
		return 480 << 10
	}
	return 180 << 10
}
