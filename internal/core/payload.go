package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/edge-mar/scatter/internal/vision/sift"
)

// Payload is the typed content of a frame travelling between the real
// pipeline services. Sections are optional and accumulate along the
// pipeline: primary produces Image, sift adds Features, encoding adds
// Fisher, lsh adds Candidates, matching replaces everything with
// Detections. In scAtteR++ (stateless) mode Features stay in the payload
// through every stage so matching never needs to call back into sift.
type Payload struct {
	Image      *ImagePayload
	Features   *Features
	Fisher     []float32
	Candidates []Candidate
	Detections []Detection
	// FastPath marks a result answered by the tracker-gated fast path
	// (detections came from smoothed tracks, not a fresh recognition
	// pass). It is a one-bit flag with no body, so fast-path and full
	// results with the same detections differ only in this bit.
	FastPath bool
}

// ImagePayload is an 8-bit grayscale image.
type ImagePayload struct {
	W, H int
	Pix  []uint8 // len == W*H
}

// FeatureKeypoint is the wire form of a SIFT keypoint.
type FeatureKeypoint struct {
	X, Y        float32
	Sigma       float32
	Orientation float32
}

// Features is a set of SIFT keypoints with descriptors.
type Features struct {
	Keypoints   []FeatureKeypoint
	Descriptors []sift.Descriptor
}

// Candidate is one LSH nearest-neighbour result.
type Candidate struct {
	ObjectID int32
	Dist     float32
}

// Detection is one recognized/tracked object with its bounding box.
type Detection struct {
	ObjectID   int32
	MinX, MinY float32
	MaxX, MaxY float32
	InlierFrac float32
}

// Payload section flags.
const (
	secImage = 1 << iota
	secFeatures
	secFisher
	secCandidates
	secDetections
	secFastPath
)

// Codec limits guard against corrupt inputs.
const (
	maxImagePixels  = 64 << 20
	maxFeatureCount = 1 << 20
	maxVectorLen    = 1 << 20
	maxListLen      = 1 << 16
)

// ErrBadPayload reports a malformed payload encoding.
var ErrBadPayload = errors.New("core: bad payload")

// Encode serializes the payload (little-endian, length-prefixed).
func (p *Payload) Encode() []byte {
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

type payloadReader struct {
	buf []byte
	off int
}

func (r *payloadReader) u8() (byte, error) {
	if r.off+1 > len(r.buf) {
		return 0, ErrBadPayload
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *payloadReader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrBadPayload
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *payloadReader) f32() (float32, error) {
	v, err := r.u32()
	return math.Float32frombits(v), err
}

func (r *payloadReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, ErrBadPayload
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, nil
}

// DecodePayload parses an encoded payload. The result shares no memory
// with data.
func DecodePayload(data []byte) (*Payload, error) {
	return decodePayload(data, false)
}

// decodePayload is DecodePayload; with borrowImage the image section's
// pixels alias data instead of being copied, for a caller that is done
// with them before data is reused.
func decodePayload(data []byte, borrowImage bool) (*Payload, error) {
	r := &payloadReader{buf: data}
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
