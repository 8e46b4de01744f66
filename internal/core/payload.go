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

// Wire sizes of the fixed-width records.
const (
	keypointBytes   = 4 * 4
	descriptorBytes = 4 * sift.DescriptorSize
	candidateBytes  = 4 * 2
	detectionBytes  = 4 * 6
)

// Encode serializes the payload (little-endian, length-prefixed) into one
// exactly sized allocation.
func (p *Payload) Encode() []byte {
	var flags byte
	size := 1
	if p.Image != nil {
		flags |= secImage
		size += 8 + len(p.Image.Pix)
	}
	if p.Features != nil {
		flags |= secFeatures
		size += 4 + keypointBytes*len(p.Features.Keypoints) + descriptorBytes*len(p.Features.Descriptors)
	}
	if p.Fisher != nil {
		flags |= secFisher
		size += 4 + 4*len(p.Fisher)
	}
	if p.Candidates != nil {
		flags |= secCandidates
		size += 4 + candidateBytes*len(p.Candidates)
	}
	if p.Detections != nil {
		flags |= secDetections
		size += 4 + detectionBytes*len(p.Detections)
	}
	if p.FastPath {
		flags |= secFastPath
	}
	out := make([]byte, size)
	out[0] = flags
	buf := out[1:] // what is left to fill
	le := binary.LittleEndian
	if p.Image != nil {
		le.PutUint32(buf, uint32(p.Image.W))
		le.PutUint32(buf[4:], uint32(p.Image.H))
		copy(buf[8:], p.Image.Pix)
		buf = buf[8+len(p.Image.Pix):]
	}
	if p.Features != nil {
		le.PutUint32(buf, uint32(len(p.Features.Keypoints)))
		buf = buf[4:]
		for _, kp := range p.Features.Keypoints {
			buf = putFloats(buf, kp.X, kp.Y, kp.Sigma, kp.Orientation)
		}
		for i := range p.Features.Descriptors {
			buf = putFloats(buf, p.Features.Descriptors[i][:]...)
		}
	}
	if p.Fisher != nil {
		le.PutUint32(buf, uint32(len(p.Fisher)))
		buf = putFloats(buf[4:], p.Fisher...)
	}
	if p.Candidates != nil {
		le.PutUint32(buf, uint32(len(p.Candidates)))
		buf = buf[4:]
		for _, c := range p.Candidates {
			le.PutUint32(buf, uint32(c.ObjectID))
			buf = putFloats(buf[4:], c.Dist)
		}
	}
	if p.Detections != nil {
		le.PutUint32(buf, uint32(len(p.Detections)))
		buf = buf[4:]
		for _, d := range p.Detections {
			le.PutUint32(buf, uint32(d.ObjectID))
			buf = putFloats(buf[4:], d.MinX, d.MinY, d.MaxX, d.MaxY, d.InlierFrac)
		}
	}
	return out
}

// putFloats writes vs at the front of buf and returns the rest of buf.
func putFloats(buf []byte, vs ...float32) []byte {
	dst := buf[:4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
	return buf[len(dst):]
}

// getFloats fills dst from the front of buf, which must hold 4·len(dst)
// bytes.
func getFloats(dst []float32, buf []byte) {
	buf = buf[:4*len(dst)]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
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

func (r *payloadReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, ErrBadPayload
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, nil
}

// count reads a section's element count, rejects one above limit, and
// returns the section's n·elemBytes body — checked against what data
// holds before the caller allocates anything for it, so a short datagram
// cannot make the decoder allocate for the count it claims.
func (r *payloadReader) count(limit uint32, elemBytes int, what string) (int, []byte, error) {
	n, err := r.u32()
	if err != nil {
		return 0, nil, err
	}
	if n > limit {
		return 0, nil, fmt.Errorf("%w: %d %s", ErrBadPayload, n, what)
	}
	body, err := r.bytes(int(n) * elemBytes)
	return int(n), body, err
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
	le := binary.LittleEndian
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
		n, body, err := r.count(maxFeatureCount, keypointBytes+descriptorBytes, "features")
		if err != nil {
			return nil, err
		}
		f := &Features{
			Keypoints:   make([]FeatureKeypoint, n),
			Descriptors: make([]sift.Descriptor, n),
		}
		for i := range f.Keypoints {
			var kp [4]float32
			getFloats(kp[:], body[keypointBytes*i:])
			f.Keypoints[i] = FeatureKeypoint{X: kp[0], Y: kp[1], Sigma: kp[2], Orientation: kp[3]}
		}
		body = body[keypointBytes*n:]
		for i := range f.Descriptors {
			getFloats(f.Descriptors[i][:], body[descriptorBytes*i:])
		}
		p.Features = f
	}
	if flags&secFisher != 0 {
		n, body, err := r.count(maxVectorLen, 4, "fisher components")
		if err != nil {
			return nil, err
		}
		p.Fisher = make([]float32, n)
		getFloats(p.Fisher, body)
	}
	if flags&secCandidates != 0 {
		n, body, err := r.count(maxListLen, candidateBytes, "candidates")
		if err != nil {
			return nil, err
		}
		p.Candidates = make([]Candidate, n)
		for i := range p.Candidates {
			rec := body[candidateBytes*i:][:candidateBytes]
			p.Candidates[i] = Candidate{
				ObjectID: int32(le.Uint32(rec)),
				Dist:     math.Float32frombits(le.Uint32(rec[4:])),
			}
		}
	}
	if flags&secDetections != 0 {
		n, body, err := r.count(maxListLen, detectionBytes, "detections")
		if err != nil {
			return nil, err
		}
		p.Detections = make([]Detection, n)
		for i := range p.Detections {
			rec := body[detectionBytes*i:][:detectionBytes]
			var v [5]float32
			getFloats(v[:], rec[4:])
			p.Detections[i] = Detection{
				ObjectID: int32(le.Uint32(rec)),
				MinX:     v[0], MinY: v[1], MaxX: v[2], MaxY: v[3], InlierFrac: v[4],
			}
		}
	}
	return p, nil
}
