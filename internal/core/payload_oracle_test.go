package core

// Exact-equality oracles for the payload codec: refEncode and
// refDecodePayload are the codec as it stood before Encode sized its
// buffer up front and the decoder bounds-checked a section at a time.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/edge-mar/scatter/internal/vision/sift"
)

// refEncode serializes the payload by appending field after field.
func refEncode(p *Payload) []byte {
	var flags byte
	if p.Image != nil {
		flags |= secImage
	}
	if p.Features != nil {
		flags |= secFeatures
	}
	if p.Fisher != nil {
		flags |= secFisher
	}
	if p.Candidates != nil {
		flags |= secCandidates
	}
	if p.Detections != nil {
		flags |= secDetections
	}
	if p.FastPath {
		flags |= secFastPath
	}
	buf := []byte{flags}
	le := binary.LittleEndian
	if p.Image != nil {
		buf = le.AppendUint32(buf, uint32(p.Image.W))
		buf = le.AppendUint32(buf, uint32(p.Image.H))
		buf = append(buf, p.Image.Pix...)
	}
	if p.Features != nil {
		buf = le.AppendUint32(buf, uint32(len(p.Features.Keypoints)))
		for _, kp := range p.Features.Keypoints {
			buf = le.AppendUint32(buf, math.Float32bits(kp.X))
			buf = le.AppendUint32(buf, math.Float32bits(kp.Y))
			buf = le.AppendUint32(buf, math.Float32bits(kp.Sigma))
			buf = le.AppendUint32(buf, math.Float32bits(kp.Orientation))
		}
		for _, d := range p.Features.Descriptors {
			for _, v := range d {
				buf = le.AppendUint32(buf, math.Float32bits(v))
			}
		}
	}
	if p.Fisher != nil {
		buf = le.AppendUint32(buf, uint32(len(p.Fisher)))
		for _, v := range p.Fisher {
			buf = le.AppendUint32(buf, math.Float32bits(v))
		}
	}
	if p.Candidates != nil {
		buf = le.AppendUint32(buf, uint32(len(p.Candidates)))
		for _, c := range p.Candidates {
			buf = le.AppendUint32(buf, uint32(c.ObjectID))
			buf = le.AppendUint32(buf, math.Float32bits(c.Dist))
		}
	}
	if p.Detections != nil {
		buf = le.AppendUint32(buf, uint32(len(p.Detections)))
		for _, d := range p.Detections {
			buf = le.AppendUint32(buf, uint32(d.ObjectID))
			for _, v := range []float32{d.MinX, d.MinY, d.MaxX, d.MaxY, d.InlierFrac} {
				buf = le.AppendUint32(buf, math.Float32bits(v))
			}
		}
	}
	return buf
}

type refPayloadReader struct {
	buf []byte
	off int
}

func (r *refPayloadReader) u8() (byte, error) {
	if r.off+1 > len(r.buf) {
		return 0, ErrBadPayload
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *refPayloadReader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrBadPayload
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *refPayloadReader) f32() (float32, error) {
	v, err := r.u32()
	return math.Float32frombits(v), err
}

func (r *refPayloadReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, ErrBadPayload
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, nil
}

// refDecodePayload reads field by field, checking bounds at each.
func refDecodePayload(data []byte, borrowImage bool) (*Payload, error) {
	r := &refPayloadReader{buf: data}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	p := &Payload{FastPath: flags&secFastPath != 0}
	if flags&secImage != 0 {
		w, err := r.u32()
		if err != nil {
			return nil, err
		}
		h, err := r.u32()
		if err != nil {
			return nil, err
		}
		if uint64(w)*uint64(h) > maxImagePixels {
			return nil, fmt.Errorf("%w: image %dx%d too large", ErrBadPayload, w, h)
		}
		pix, err := r.bytes(int(w) * int(h))
		if err != nil {
			return nil, err
		}
		if !borrowImage {
			pix = append([]uint8(nil), pix...)
		}
		p.Image = &ImagePayload{W: int(w), H: int(h), Pix: pix}
	}
	if flags&secFeatures != 0 {
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if n > maxFeatureCount {
			return nil, fmt.Errorf("%w: %d features", ErrBadPayload, n)
		}
		f := &Features{
			Keypoints:   make([]FeatureKeypoint, n),
			Descriptors: make([]sift.Descriptor, n),
		}
		for i := range f.Keypoints {
			kp := &f.Keypoints[i]
			for _, dst := range []*float32{&kp.X, &kp.Y, &kp.Sigma, &kp.Orientation} {
				if *dst, err = r.f32(); err != nil {
					return nil, err
				}
			}
		}
		for i := range f.Descriptors {
			for j := 0; j < sift.DescriptorSize; j++ {
				if f.Descriptors[i][j], err = r.f32(); err != nil {
					return nil, err
				}
			}
		}
		p.Features = f
	}
	if flags&secFisher != 0 {
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if n > maxVectorLen {
			return nil, fmt.Errorf("%w: fisher vector of %d", ErrBadPayload, n)
		}
		p.Fisher = make([]float32, n)
		for i := range p.Fisher {
			if p.Fisher[i], err = r.f32(); err != nil {
				return nil, err
			}
		}
	}
	if flags&secCandidates != 0 {
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if n > maxListLen {
			return nil, fmt.Errorf("%w: %d candidates", ErrBadPayload, n)
		}
		p.Candidates = make([]Candidate, n)
		for i := range p.Candidates {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			p.Candidates[i].ObjectID = int32(id)
			if p.Candidates[i].Dist, err = r.f32(); err != nil {
				return nil, err
			}
		}
	}
	if flags&secDetections != 0 {
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if n > maxListLen {
			return nil, fmt.Errorf("%w: %d detections", ErrBadPayload, n)
		}
		p.Detections = make([]Detection, n)
		for i := range p.Detections {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			d := &p.Detections[i]
			d.ObjectID = int32(id)
			for _, dst := range []*float32{&d.MinX, &d.MinY, &d.MaxX, &d.MaxY, &d.InlierFrac} {
				if *dst, err = r.f32(); err != nil {
					return nil, err
				}
			}
		}
	}
	return p, nil
}

// randomPayload draws a payload with any subset of sections, empty
// sections and mismatched keypoint/descriptor counts included.
func randomPayload(rng *rand.Rand) *Payload {
	p := &Payload{FastPath: rng.Intn(4) == 0}
	floats := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(rng.NormFloat64())
		}
		return out
	}
	if rng.Intn(2) == 0 {
		w, h := rng.Intn(9), rng.Intn(9)
		pix := make([]uint8, w*h)
		rng.Read(pix)
		p.Image = &ImagePayload{W: w, H: h, Pix: pix}
	}
	if rng.Intn(2) == 0 {
		n := rng.Intn(5)
		f := &Features{Keypoints: make([]FeatureKeypoint, n), Descriptors: make([]sift.Descriptor, n)}
		for i := range f.Keypoints {
			v := floats(4)
			f.Keypoints[i] = FeatureKeypoint{X: v[0], Y: v[1], Sigma: v[2], Orientation: v[3]}
			copy(f.Descriptors[i][:], floats(sift.DescriptorSize))
		}
		p.Features = f
	}
	if rng.Intn(2) == 0 {
		p.Fisher = floats(rng.Intn(40))
	}
	if rng.Intn(2) == 0 {
		p.Candidates = make([]Candidate, rng.Intn(4))
		for i := range p.Candidates {
			p.Candidates[i] = Candidate{ObjectID: int32(rng.Uint32()), Dist: rng.Float32()}
		}
	}
	if rng.Intn(2) == 0 {
		p.Detections = make([]Detection, rng.Intn(4))
		for i := range p.Detections {
			v := floats(5)
			p.Detections[i] = Detection{ObjectID: int32(rng.Uint32()), MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3], InlierFrac: v[4]}
		}
	}
	return p
}

func TestPayloadCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	payloads := []*Payload{samplePayload(), {}, {Fisher: []float32{float32(math.NaN()), float32(math.Inf(-1))}}}
	for _, p := range codecCases() {
		payloads = append(payloads, p)
	}
	for i := 0; i < 200; i++ {
		payloads = append(payloads, randomPayload(rng))
	}
	for i, p := range payloads {
		enc, want := p.Encode(), refEncode(p)
		if !bytes.Equal(enc, want) {
			t.Fatalf("payload %d: Encode differs from reference (%d vs %d bytes)", i, len(enc), len(want))
		}
		// Whole, truncated, with a trailing byte, and with each section
		// flag flipped (sections announced but absent, present but
		// unannounced): result and error must both agree.
		inputs := [][]byte{enc, enc[:len(enc)/2], append(enc[:len(enc):len(enc)], 0xA5)}
		for flag := byte(secImage); flag <= secFastPath; flag <<= 1 {
			flipped := append([]byte(nil), enc...)
			flipped[0] ^= flag
			inputs = append(inputs, flipped)
		}
		for j, in := range inputs {
			for _, borrow := range []bool{false, true} {
				got, gotErr := decodePayload(in, borrow)
				ref, refErr := refDecodePayload(in, borrow)
				if errors.Is(gotErr, ErrBadPayload) != errors.Is(refErr, ErrBadPayload) || (gotErr == nil) != (refErr == nil) {
					t.Fatalf("payload %d input %d borrow %v: err = %v, reference %v", i, j, borrow, gotErr, refErr)
				}
				if !reflect.DeepEqual(bitsOf(got), bitsOf(ref)) {
					t.Fatalf("payload %d input %d borrow %v: decoded payload differs from reference", i, j, borrow)
				}
			}
		}
	}
}

// bitsOf re-encodes a decoded payload so NaN floats compare by bit
// pattern; nil stays nil.
func bitsOf(p *Payload) []byte {
	if p == nil {
		return nil
	}
	return refEncode(p)
}
