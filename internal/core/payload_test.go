package core

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/edge-mar/scatter/internal/vision/sift"
)

func samplePayload() *Payload {
	var d1, d2 sift.Descriptor
	d1[0] = 0.5
	d2[127] = 0.25
	return &Payload{
		Image: &ImagePayload{W: 3, H: 2, Pix: []uint8{1, 2, 3, 4, 5, 6}},
		Features: &Features{
			Keypoints: []FeatureKeypoint{
				{X: 1.5, Y: 2.5, Sigma: 1.6, Orientation: -0.7},
				{X: 10, Y: 20, Sigma: 3.2, Orientation: 2.1},
			},
			Descriptors: []sift.Descriptor{d1, d2},
		},
		Fisher:     []float32{0.1, -0.2, 0.3},
		Candidates: []Candidate{{ObjectID: 2, Dist: 0.12}, {ObjectID: 0, Dist: 0.9}},
		Detections: []Detection{{ObjectID: 1, MinX: 5, MinY: 6, MaxX: 50, MaxY: 60, InlierFrac: 0.8}},
	}
}

func payloadsEqual(a, b *Payload) bool {
	switch {
	case (a.Image == nil) != (b.Image == nil),
		(a.Features == nil) != (b.Features == nil),
		len(a.Fisher) != len(b.Fisher),
		len(a.Candidates) != len(b.Candidates),
		len(a.Detections) != len(b.Detections):
		return false
	}
	if a.Image != nil {
		if a.Image.W != b.Image.W || a.Image.H != b.Image.H || len(a.Image.Pix) != len(b.Image.Pix) {
			return false
		}
		for i := range a.Image.Pix {
			if a.Image.Pix[i] != b.Image.Pix[i] {
				return false
			}
		}
	}
	if a.Features != nil {
		if len(a.Features.Keypoints) != len(b.Features.Keypoints) {
			return false
		}
		for i := range a.Features.Keypoints {
			if a.Features.Keypoints[i] != b.Features.Keypoints[i] {
				return false
			}
			if a.Features.Descriptors[i] != b.Features.Descriptors[i] {
				return false
			}
		}
	}
	for i := range a.Fisher {
		if a.Fisher[i] != b.Fisher[i] {
			return false
		}
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			return false
		}
	}
	for i := range a.Detections {
		if a.Detections[i] != b.Detections[i] {
			return false
		}
	}
	return true
}

func TestPayloadRoundTripFull(t *testing.T) {
	p := samplePayload()
	got, err := DecodePayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !payloadsEqual(p, got) {
		t.Errorf("round trip mismatch:\n%+v\nvs\n%+v", p, got)
	}
}

func TestPayloadRoundTripPartial(t *testing.T) {
	cases := []*Payload{
		{},
		{Image: &ImagePayload{W: 1, H: 1, Pix: []uint8{7}}},
		{Fisher: []float32{}},
		{Candidates: []Candidate{}},
		{Detections: []Detection{{ObjectID: 3}}},
	}
	for i, p := range cases {
		got, err := DecodePayload(p.Encode())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !payloadsEqual(p, got) {
			t.Errorf("case %d mismatch", i)
		}
	}
}

func TestPayloadDecodeTruncated(t *testing.T) {
	full := samplePayload().Encode()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := DecodePayload(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

// codecCases is one valid payload per section, plus the flag-only and the
// all-sections ones.
func codecCases() map[string]*Payload {
	full := samplePayload()
	return map[string]*Payload{
		"image":      {Image: full.Image},
		"features":   {Features: full.Features},
		"fisher":     {Fisher: full.Fisher},
		"candidates": {Candidates: full.Candidates},
		"detections": {Detections: full.Detections},
		"fast-path":  {Detections: full.Detections, FastPath: true},
		"flag-only":  {FastPath: true},
		"full":       full,
	}
}

// Every strict prefix of a valid encoding leaves a section it announces
// short, so it must be refused as ErrBadPayload — and never by panicking.
func TestPayloadDecodeRejectsEveryPrefix(t *testing.T) {
	for name, p := range codecCases() {
		enc := p.Encode()
		if got, err := DecodePayload(enc); err != nil || !payloadsEqual(p, got) || got.FastPath != p.FastPath {
			t.Fatalf("%s: whole encoding does not round-trip (err %v)", name, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodePayload(enc[:cut]); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s: prefix of %d/%d bytes: err = %v, want ErrBadPayload", name, cut, len(enc), err)
			}
			if _, err := decodePayload(enc[:cut], true); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s: borrowing decode of a %d/%d-byte prefix: err = %v, want ErrBadPayload", name, cut, len(enc), err)
			}
		}
	}
}

// A length field one past its limit is refused whatever follows it, and a
// length within its limit whose bytes are missing is refused before
// anything is allocated for it: a 5-byte datagram claiming 2^20 features
// used to cost a 553 MB allocation on its way to the error.
func TestPayloadDecodeRejectsOversizedCounts(t *testing.T) {
	header := func(flag byte, fields ...uint32) []byte {
		buf := []byte{flag}
		for _, f := range fields {
			buf = binary.LittleEndian.AppendUint32(buf, f)
		}
		return buf
	}
	padding := make([]byte, 4096)
	for name, hdr := range map[string][]byte{
		"image area":  header(secImage, 1<<13+1, 1<<13),
		"image width": header(secImage, 1<<31, 1<<31),
		"features":    header(secFeatures, maxFeatureCount+1),
		"fisher":      header(secFisher, maxVectorLen+1),
		"candidates":  header(secCandidates, maxListLen+1),
		"detections":  header(secDetections, maxListLen+1),
		"wrapped":     header(secFeatures, 1<<32-1),
	} {
		for _, data := range [][]byte{hdr, append(hdr[:len(hdr):len(hdr)], padding...)} {
			if _, err := DecodePayload(data); !errors.Is(err, ErrBadPayload) {
				t.Errorf("%s (%d bytes): err = %v, want ErrBadPayload", name, len(data), err)
			}
		}
	}
	if raceEnabled {
		return // allocation accounting is unreliable under -race
	}
	for name, hdr := range map[string][]byte{
		"features":   header(secFeatures, maxFeatureCount),
		"fisher":     header(secFisher, maxVectorLen),
		"candidates": header(secCandidates, maxListLen),
		"detections": header(secDetections, maxListLen),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodePayload(hdr)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s at its limit with no body: err = %v, want ErrBadPayload", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
			t.Errorf("%s at its limit with no body: decoder allocated %d bytes for a %d-byte input", name, got, len(hdr))
		}
	}
}

// The codec's allocation budget: Encode sizes its buffer exactly, and a
// features payload decodes into the payload, the section and its two
// arrays.
func TestPayloadCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	f := &Features{Keypoints: make([]FeatureKeypoint, 115), Descriptors: make([]sift.Descriptor, 115)}
	for name, p := range map[string]*Payload{
		"features": {Features: f},
		"matching": {Features: f, Candidates: make([]Candidate, 3)},
		"result":   {Detections: make([]Detection, 2)},
		"full":     samplePayload(),
	} {
		var enc []byte
		if got := testing.AllocsPerRun(50, func() { enc = p.Encode() }); got != 1 {
			t.Errorf("%s: Encode allocates %v times, want 1", name, got)
		}
		if len(enc) != cap(enc) {
			t.Errorf("%s: Encode returned %d bytes in a %d-byte buffer", name, len(enc), cap(enc))
		}
	}
	enc := (&Payload{Features: f}).Encode()
	if got := testing.AllocsPerRun(50, func() { _, _ = DecodePayload(enc) }); got > 5 {
		t.Errorf("DecodePayload of a features payload allocates %v times, budget 5", got)
	}
}

func TestPayloadDecodeGarbageProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodePayload(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPayloadDecodeRejectsHugeImage(t *testing.T) {
	// Craft flags=image with absurd dimensions.
	buf := []byte{secImage, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := DecodePayload(buf); err == nil {
		t.Error("huge image accepted")
	}
}

func TestPayloadRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Payload{}
		if rng.Intn(2) == 1 {
			w, h := 1+rng.Intn(8), 1+rng.Intn(8)
			pix := make([]uint8, w*h)
			rng.Read(pix)
			p.Image = &ImagePayload{W: w, H: h, Pix: pix}
		}
		if rng.Intn(2) == 1 {
			n := rng.Intn(4)
			f := &Features{Keypoints: make([]FeatureKeypoint, n), Descriptors: make([]sift.Descriptor, n)}
			for i := 0; i < n; i++ {
				f.Keypoints[i] = FeatureKeypoint{X: rng.Float32(), Y: rng.Float32(), Sigma: rng.Float32()}
				for j := range f.Descriptors[i] {
					f.Descriptors[i][j] = rng.Float32()
				}
			}
			p.Features = f
		}
		if rng.Intn(2) == 1 {
			p.Fisher = make([]float32, rng.Intn(16))
			for i := range p.Fisher {
				p.Fisher[i] = rng.Float32()
			}
		}
		got, err := DecodePayload(p.Encode())
		if err != nil {
			return false
		}
		return payloadsEqual(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPayloadEncodeFeatures(b *testing.B) {
	f := &Features{
		Keypoints:   make([]FeatureKeypoint, 150),
		Descriptors: make([]sift.Descriptor, 150),
	}
	p := &Payload{Features: f}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Encode()
	}
}
