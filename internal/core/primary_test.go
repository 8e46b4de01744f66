package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/imgproc"
	"github.com/edge-mar/scatter/internal/wire"
)

// refResizeImage is primary's resize as it was before resizeImage: the
// whole source converted to float, imgproc.Resize, and back to 8 bits.
func refResizeImage(ip *ImagePayload, w, h int) *ImagePayload {
	return grayToPayload(imgproc.Resize(payloadToGray(ip), w, h))
}

func noisePayload(w, h int, seed int64) *ImagePayload {
	rng := rand.New(rand.NewSource(seed))
	ip := &ImagePayload{W: w, H: h, Pix: make([]uint8, w*h)}
	rng.Read(ip.Pix)
	return ip
}

func TestResizeImageMatchesReference(t *testing.T) {
	for _, c := range [][4]int{
		{1280, 720, 320, 180}, {321, 181, 320, 180}, {640, 360, 320, 180},
		{160, 90, 320, 180}, {33, 17, 64, 36}, {21, 4, 7, 5}, {7, 5, 21, 4},
		{3, 3, 8, 8}, {1, 1, 4, 3}, {320, 180, 1, 1},
	} {
		ip := noisePayload(c[0], c[1], int64(c[0]+c[1]))
		got, want := resizeImage(ip, c[2], c[3]), refResizeImage(ip, c[2], c[3])
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%dx%d -> %dx%d differs from Resize(payloadToGray)", c[0], c[1], c[2], c[3])
		}
	}
}

// The 720p operating point on real clip content, through Process: the
// output must equal the reference resize and the input bytes — which the
// decode now borrows instead of copying — must come out untouched and
// unshared.
func TestPrimary720pMatchesReference(t *testing.T) {
	gen := trace.NewGenerator(trace.Config{W: 1280, H: 720, Seed: 7})
	pr := NewPrimary(0, 0)
	for _, i := range []int{0, 17, 59} {
		in := GrayToPayload(gen.GrayFrame(i))
		encoded := (&Payload{Image: in}).Encode()
		fr := &wire.Frame{Step: wire.StepPrimary, Payload: bytes.Clone(encoded)}
		input := fr.Payload
		if err := pr.Process(fr); err != nil {
			t.Fatal(err)
		}
		if fr.Step != wire.StepSIFT {
			t.Fatalf("frame %d: step after primary = %v", i, fr.Step)
		}
		got, err := DecodePayload(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		want := refResizeImage(in, 320, 180)
		if got.Image.W != 320 || got.Image.H != 180 || !bytes.Equal(got.Image.Pix, want.Pix) {
			t.Errorf("clip frame %d: 720p -> 320x180 differs from Resize(payloadToGray)", i)
		}
		if !bytes.Equal(input, encoded) {
			t.Errorf("clip frame %d: Process wrote into the payload it was given", i)
		}
		for j := range input {
			input[j] = 0
		}
		if again, err := DecodePayload(fr.Payload); err != nil || !bytes.Equal(again.Image.Pix, want.Pix) {
			t.Errorf("clip frame %d: output still shares memory with the input payload", i)
		}
	}
}

// Converting an 8-bit pixel to its intensity and back is the identity, so
// primary passes an image already at the analysis size on untouched
// instead of making that round trip.
func TestIntensityRoundTripsEvery8BitValue(t *testing.T) {
	for v := 0; v < 256; v++ {
		if got := quantize8(unitIntensity[v]); got != uint8(v) {
			t.Errorf("quantize8(float32(%d)/255) = %d", v, got)
		}
	}
}

// A frame already at the analysis size leaves primary byte for byte as it
// came in, in a buffer of its own.
func TestPrimaryPassesAnalysisSizeThrough(t *testing.T) {
	in := noisePayload(320, 180, 5)
	encoded := (&Payload{Image: in}).Encode()
	fr := &wire.Frame{Step: wire.StepPrimary, Payload: bytes.Clone(encoded)}
	input := fr.Payload
	if err := NewPrimary(320, 180).Process(fr); err != nil {
		t.Fatal(err)
	}
	if fr.Step != wire.StepSIFT {
		t.Fatalf("step after primary = %v", fr.Step)
	}
	if !bytes.Equal(fr.Payload, encoded) {
		t.Fatal("a 320x180 frame left primary changed")
	}
	clear(input)
	if !bytes.Equal(fr.Payload, encoded) {
		t.Error("primary's output shares memory with the payload it was given")
	}
}

func TestPrimaryRejectsEmptyImage(t *testing.T) {
	for _, size := range [][2]int{{0, 0}, {0, 5}, {5, 0}} {
		p := &Payload{Image: &ImagePayload{W: size[0], H: size[1], Pix: []uint8{}}}
		fr := &wire.Frame{Step: wire.StepPrimary, Payload: p.Encode()}
		if err := NewPrimary(0, 0).Process(fr); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%dx%d image: err = %v, want ErrBadPayload", size[0], size[1], err)
		}
	}
}

func primary720pFrame() (*Primary, []byte) {
	return NewPrimary(0, 0), (&Payload{Image: noisePayload(1280, 720, 1)}).Encode()
}

// Primary's per-frame garbage at the paper's frame size: the resized
// image, its encoding and the column tables — not a float copy of the
// 900 KB source (4.98 MB before resizeImage and the borrowing decode).
func TestPrimaryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	const budget = 512 << 10
	pr, payload := primary720pFrame()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fr := &wire.Frame{Step: wire.StepPrimary, Payload: payload}
		if err := pr.Process(fr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perFrame := (after.TotalAlloc - before.TotalAlloc) / runs; perFrame > budget {
		t.Errorf("Primary.Process allocates %d B per 720p frame, budget %d", perFrame, budget)
	}
}

func BenchmarkPrimary720p(b *testing.B) {
	pr, payload := primary720pFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := &wire.Frame{Step: wire.StepPrimary, Payload: payload}
		if err := pr.Process(fr); err != nil {
			b.Fatal(err)
		}
	}
}
