// Package wire defines the frame envelope exchanged between scAtteR
// services. The paper specifies the intermediary metadata transferred
// between stages: client ID, frame number, the client's IP address and
// port, and the current pipeline step — allowing multiple client inputs
// to map onto the same service instance. scAtteR++ additionally attaches
// per-stage queueing/processing records (sidecar analytics) to the
// frame's state.
//
// The codec is a versioned big-endian binary format with explicit length
// prefixes, suitable for UDP datagrams and for the framed RPC transport.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
)

// Step identifies the pipeline stage a frame is currently traversing.
type Step uint8

// Pipeline steps in order. StepDone marks a fully processed frame on its
// way back to the client.
const (
	StepPrimary Step = iota
	StepSIFT
	StepEncoding
	StepLSH
	StepMatching
	StepDone
	NumSteps = int(StepDone) // number of processing services
)

// String returns the service name used throughout the paper's figures.
func (s Step) String() string {
	switch s {
	case StepPrimary:
		return "primary"
	case StepSIFT:
		return "sift"
	case StepEncoding:
		return "encoding"
	case StepLSH:
		return "lsh"
	case StepMatching:
		return "matching"
	case StepDone:
		return "done"
	default:
		return fmt.Sprintf("step-%d", uint8(s))
	}
}

// ParseStep resolves a service name ("primary", "sift", ...) to its
// step. The names match Step.String and the paper's figures; "done" is
// not a service and does not parse.
func ParseStep(name string) (Step, error) {
	for s := StepPrimary; s < StepDone; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("wire: unknown service %q", name)
}

// Next returns the subsequent pipeline step. Next of StepDone is StepDone.
func (s Step) Next() Step {
	if s >= StepDone {
		return StepDone
	}
	return s + 1
}

// Valid reports whether s names a real step (including StepDone).
func (s Step) Valid() bool { return s <= StepDone }

// StageRecord is one sidecar analytics sample: how long the frame queued
// before the service and how long the service processed it.
type StageRecord struct {
	Step        Step
	QueueMicros uint32
	ProcMicros  uint32
}

// SpanRecord is one per-frame tracing span riding the envelope across
// hosts, like the paper's intermediary metadata: absolute enqueue/start/
// end timestamps (µs since the deployment's epoch) on the named host, so
// a collector can reconstruct queue-wait and processing segments per
// stage. The on-wire span block is independently versioned (see
// spanBlockVersion) and optional — frames without spans cost no extra
// bytes.
type SpanRecord struct {
	Step          Step
	Outcome       uint8 // obs.Outcome value
	Host          string
	EnqueueMicros uint64
	StartMicros   uint64
	EndMicros     uint64
}

// Frame is the unit of work flowing through the pipeline.
type Frame struct {
	ClientID      uint32
	FrameNo       uint64
	ClientAddr    netip.AddrPort // where the final result is delivered
	Step          Step
	Stateless     bool   // scAtteR++: sift state rides in the payload
	AckWanted     bool   // sender requests a hop acknowledgement on admission
	CaptureMicros uint64 // client capture timestamp (µs since epoch/run start)
	Payload       []byte
	Stages        []StageRecord // scAtteR++ sidecar analytics
	Spans         []SpanRecord  // optional per-frame tracing spans
}

// Codec constants.
const (
	magic         = 0x5CA7 // "SCAT"
	version       = 1
	maxPayload    = 8 << 20 // 8 MiB guards against corrupt length fields
	maxStages     = 64
	maxSpans      = 64
	maxSpanHost   = 255
	fixedHdrBytes = 2 + 1 + 4 + 8 + 1 + 1 + 8 + 1 // magic..addrLen (before addr)

	// flagStateless marks scAtteR++ frames carrying sift state; flagSpans
	// marks the presence of the versioned span block; flagAckWanted asks
	// the receiving hop to acknowledge admission (the route-statistics
	// loss signal). Decoders ignore unknown flag bits, so each addition
	// stays backward compatible within wire version 1.
	flagStateless = 1 << 0
	flagSpans     = 1 << 1
	flagAckWanted = 1 << 2

	// spanBlockVersion versions the span block independently of the
	// envelope, so tracing can evolve without a wire version bump.
	spanBlockVersion = 1
)

// Codec errors.
var (
	ErrShortBuffer = errors.New("wire: short buffer")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrTooLarge    = errors.New("wire: field exceeds limit")
)

// maxAddrBytes sizes the encoder's single up-front grow for the common
// address encodings (16-byte IPv6 + 2-byte port); rare zoned addresses
// may grow once more.
const maxAddrBytes = 18

// EncodedSize returns the exact number of bytes MarshalBinary would
// produce for a zone-free address, and a conservative lower bound
// otherwise — callers use it to size pooled buffers.
func (f *Frame) EncodedSize() int {
	addr := 0
	if f.ClientAddr.IsValid() {
		if f.ClientAddr.Addr().Is4() {
			addr = 6
		} else {
			addr = maxAddrBytes + len(f.ClientAddr.Addr().Zone())
		}
	}
	spanBytes := 0
	if len(f.Spans) > 0 {
		spanBytes = 2
		for _, s := range f.Spans {
			spanBytes += 3 + len(s.Host) + 24
		}
	}
	return fixedHdrBytes + addr + 1 + len(f.Stages)*9 + spanBytes + 4 + len(f.Payload)
}

// MarshalBinary encodes the frame into a freshly allocated buffer. The
// hot path uses AppendBinary with a pooled buffer instead.
func (f *Frame) MarshalBinary() ([]byte, error) {
	return f.AppendBinary(nil)
}

// AppendBinary is the core encoder: it validates the frame, appends its
// encoding to buf, and returns the extended buffer. When buf has enough
// spare capacity (see EncodedSize) the call performs zero allocations,
// so a worker re-encoding frames in steady state produces no garbage.
// On error buf is returned unmodified.
func (f *Frame) AppendBinary(buf []byte) ([]byte, error) {
	if len(f.Payload) > maxPayload {
		return buf, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(f.Payload))
	}
	if len(f.Stages) > maxStages {
		return buf, fmt.Errorf("%w: %d stage records", ErrTooLarge, len(f.Stages))
	}
	if len(f.Spans) > maxSpans {
		return buf, fmt.Errorf("%w: %d span records", ErrTooLarge, len(f.Spans))
	}
	for _, s := range f.Spans {
		if len(s.Host) > maxSpanHost {
			return buf, fmt.Errorf("%w: span host %d bytes", ErrTooLarge, len(s.Host))
		}
	}
	base := len(buf)
	buf = slices.Grow(buf, f.EncodedSize())
	buf = binary.BigEndian.AppendUint16(buf, magic)
	buf = append(buf, version)
	buf = binary.BigEndian.AppendUint32(buf, f.ClientID)
	buf = binary.BigEndian.AppendUint64(buf, f.FrameNo)
	buf = append(buf, byte(f.Step))
	var flags byte
	if f.Stateless {
		flags |= flagStateless
	}
	if len(f.Spans) > 0 {
		flags |= flagSpans
	}
	if f.AckWanted {
		flags |= flagAckWanted
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, f.CaptureMicros)
	// The address length byte is patched after the netip append, so the
	// wire format stays byte-identical to netip's own binary encoding
	// without marshalling into a temporary.
	lenOff := len(buf)
	buf = append(buf, 0)
	if f.ClientAddr.IsValid() {
		grown, err := f.ClientAddr.AppendBinary(buf)
		if err != nil {
			return buf[:base], fmt.Errorf("wire: marshal addr: %w", err)
		}
		n := len(grown) - lenOff - 1
		if n > 255 {
			return buf[:base], fmt.Errorf("%w: address %d bytes", ErrTooLarge, n)
		}
		grown[lenOff] = byte(n)
		buf = grown
	}
	buf = append(buf, byte(len(f.Stages)))
	for _, s := range f.Stages {
		buf = append(buf, byte(s.Step))
		buf = binary.BigEndian.AppendUint32(buf, s.QueueMicros)
		buf = binary.BigEndian.AppendUint32(buf, s.ProcMicros)
	}
	if len(f.Spans) > 0 {
		buf = append(buf, spanBlockVersion)
		buf = append(buf, byte(len(f.Spans)))
		for _, s := range f.Spans {
			buf = append(buf, byte(s.Step), s.Outcome, byte(len(s.Host)))
			buf = append(buf, s.Host...)
			buf = binary.BigEndian.AppendUint64(buf, s.EnqueueMicros)
			buf = binary.BigEndian.AppendUint64(buf, s.StartMicros)
			buf = binary.BigEndian.AppendUint64(buf, s.EndMicros)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = append(buf, f.Payload...)
	return buf, nil
}

// UnmarshalBinary decodes a frame previously produced by MarshalBinary.
// The payload is copied out of data, so the caller may reuse its buffer.
// Decoding into a frame that already has Payload/Stages/Spans capacity
// (e.g. one recycled through a FramePool) reuses it and allocates only
// for span host strings.
func (f *Frame) UnmarshalBinary(data []byte) error {
	return f.unmarshal(data, true)
}

// UnmarshalBinaryNoCopy decodes like UnmarshalBinary but aliases
// f.Payload into data instead of copying it out.
//
// Buffer-ownership contract: data must stay alive and unmodified for as
// long as f.Payload is in use. A transport.Handler only borrows its
// buffer for the duration of the call, so it must finish with the
// payload — or copy it — before returning; a transport.OwningHandler
// keeps its buffer until it releases it, so the frame may live that long
// (the worker's data plane). A frame holding an aliased payload must not
// be recycled through a FramePool (Put would retain the alias as reusable
// capacity); set Payload to nil first, and release the buffer after.
func (f *Frame) UnmarshalBinaryNoCopy(data []byte) error {
	return f.unmarshal(data, false)
}

func (f *Frame) unmarshal(data []byte, copyPayload bool) error {
	r := reader{buf: data}
	m, err := r.u16()
	if err != nil {
		return err
	}
	if m != magic {
		return ErrBadMagic
	}
	v, err := r.u8()
	if err != nil {
		return err
	}
	if v != version {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	if f.ClientID, err = r.u32(); err != nil {
		return err
	}
	if f.FrameNo, err = r.u64(); err != nil {
		return err
	}
	step, err := r.u8()
	if err != nil {
		return err
	}
	f.Step = Step(step)
	if !f.Step.Valid() {
		return fmt.Errorf("wire: invalid step %d", step)
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	f.Stateless = flags&flagStateless != 0
	f.AckWanted = flags&flagAckWanted != 0
	if f.CaptureMicros, err = r.u64(); err != nil {
		return err
	}
	addrLen, err := r.u8()
	if err != nil {
		return err
	}
	addrBytes, err := r.bytes(int(addrLen))
	if err != nil {
		return err
	}
	f.ClientAddr = netip.AddrPort{}
	if addrLen > 0 {
		if err := f.ClientAddr.UnmarshalBinary(addrBytes); err != nil {
			return fmt.Errorf("wire: unmarshal addr: %w", err)
		}
	}
	nStages, err := r.u8()
	if err != nil {
		return err
	}
	if int(nStages) > maxStages {
		return fmt.Errorf("%w: %d stage records", ErrTooLarge, nStages)
	}
	f.Stages = f.Stages[:0]
	for i := 0; i < int(nStages); i++ {
		var s StageRecord
		st, err := r.u8()
		if err != nil {
			return err
		}
		s.Step = Step(st)
		if s.QueueMicros, err = r.u32(); err != nil {
			return err
		}
		if s.ProcMicros, err = r.u32(); err != nil {
			return err
		}
		f.Stages = append(f.Stages, s)
	}
	f.Spans = f.Spans[:0]
	if flags&flagSpans != 0 {
		sv, err := r.u8()
		if err != nil {
			return err
		}
		if sv != spanBlockVersion {
			return fmt.Errorf("%w: span block %d", ErrBadVersion, sv)
		}
		nSpans, err := r.u8()
		if err != nil {
			return err
		}
		if int(nSpans) > maxSpans {
			return fmt.Errorf("%w: %d span records", ErrTooLarge, nSpans)
		}
		for i := 0; i < int(nSpans); i++ {
			var s SpanRecord
			st, err := r.u8()
			if err != nil {
				return err
			}
			s.Step = Step(st)
			if s.Outcome, err = r.u8(); err != nil {
				return err
			}
			hostLen, err := r.u8()
			if err != nil {
				return err
			}
			host, err := r.bytes(int(hostLen))
			if err != nil {
				return err
			}
			s.Host = string(host)
			if s.EnqueueMicros, err = r.u64(); err != nil {
				return err
			}
			if s.StartMicros, err = r.u64(); err != nil {
				return err
			}
			if s.EndMicros, err = r.u64(); err != nil {
				return err
			}
			f.Spans = append(f.Spans, s)
		}
	}
	payLen, err := r.u32()
	if err != nil {
		return err
	}
	if payLen > maxPayload {
		return fmt.Errorf("%w: payload %d bytes", ErrTooLarge, payLen)
	}
	pay, err := r.bytes(int(payLen))
	if err != nil {
		return err
	}
	if copyPayload || len(pay) == 0 {
		f.Payload = append(f.Payload[:0], pay...)
	} else {
		f.Payload = pay
	}
	return nil
}

// AddStage appends a sidecar analytics record, silently dropping records
// beyond the codec limit (analytics are best-effort).
func (f *Frame) AddStage(step Step, queueMicros, procMicros uint32) {
	if len(f.Stages) >= maxStages {
		return
	}
	f.Stages = append(f.Stages, StageRecord{Step: step, QueueMicros: queueMicros, ProcMicros: procMicros})
}

// AddSpan appends a tracing span, silently dropping records beyond the
// codec limit (tracing is best-effort, like the sidecar analytics).
func (f *Frame) AddSpan(s SpanRecord) {
	if len(f.Spans) >= maxSpans {
		return
	}
	f.Spans = append(f.Spans, s)
}

// Reset clears the frame for reuse, keeping Payload/Stages/Spans capacity
// so the next decode or clone into it does not reallocate.
func (f *Frame) Reset() {
	payload, stages, spans := f.Payload[:0], f.Stages[:0], f.Spans[:0]
	*f = Frame{Payload: payload, Stages: stages, Spans: spans}
}

// reader is a bounds-checked big-endian cursor.
type reader struct {
	buf []byte
	off int
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.buf) {
		return ErrShortBuffer
	}
	return nil
}

func (r *reader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, nil
}
