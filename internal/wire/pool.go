// Frame and buffer pools for the zero-allocation data plane. The frame
// path — decode at a worker, process, re-encode, forward — runs at the
// offered frame rate times the client count, so every per-frame
// allocation multiplies into GC pressure exactly when the sidecar queues
// need headroom. These pools let the steady-state hot path recycle what
// it uses: FramePool recycles decoded envelopes (stage and span
// capacity, and payload capacity for copying decodes), BufPool recycles
// encode scratch and the transports' receive buffers. Both are safe for
// concurrent use and follow the same shape as
// internal/vision/parallel.SlicePool.
package wire

import "sync"

// FramePool recycles Frame envelopes. Frames returned by Get are zeroed
// (Reset) but keep the payload/record capacity of their previous life,
// so a decoder reaches steady state after one frame and allocates
// nothing afterwards.
//
// Ownership: Get transfers the frame to the caller; Put transfers it
// back and must be the caller's last use. Never Put a frame whose
// Payload aliases a buffer it does not own (UnmarshalBinaryNoCopy) — the
// alias would survive as reusable capacity and a later decode would
// write into someone else's bytes; nil the Payload first. A worker
// decodes without a copy into a receive buffer it owns, so its envelopes
// go back with a nil Payload and carry only stage and span capacity;
// the buffer goes back to its transport separately (transport.Releaser).
type FramePool struct {
	pool sync.Pool
}

// Get returns an empty frame, recycled when available.
func (p *FramePool) Get() *Frame {
	if f, _ := p.pool.Get().(*Frame); f != nil {
		return f
	}
	return &Frame{}
}

// Put resets the frame and recycles it. Put(nil) is a no-op.
func (p *FramePool) Put(f *Frame) {
	if f == nil {
		return
	}
	f.Reset()
	p.pool.Put(f)
}

// bufPoolMaxEntries bounds a BufPool's freelist: retention is capped at
// bufPoolMaxEntries times the largest buffer the pool has seen, and the
// Get scan stays O(1)-ish.
const bufPoolMaxEntries = 32

// BufPool recycles byte buffers for encode scratch and transport reads.
// Get returns a zero-length buffer with at least the requested capacity;
// contents beyond len are unspecified (callers overwrite, not read).
//
// Unlike sync.Pool, a BufPool is a bounded mutex-guarded freelist: Put
// never allocates (sync.Pool would box the slice header on every Put,
// defeating the zero-allocation budget), at the cost of GC not trimming
// idle buffers. Use one pool per traffic class so steady-state sizes
// match.
type BufPool struct {
	mu   sync.Mutex
	bufs [][]byte
}

// Get returns a buffer with len 0 and cap >= n, recycling the most
// recently Put buffer that is large enough.
func (p *BufPool) Get(n int) []byte {
	p.mu.Lock()
	for i := len(p.bufs) - 1; i >= 0; i-- {
		if cap(p.bufs[i]) >= n {
			b := p.bufs[i]
			last := len(p.bufs) - 1
			p.bufs[i] = p.bufs[last]
			p.bufs[last] = nil
			p.bufs = p.bufs[:last]
			p.mu.Unlock()
			return b[:0]
		}
	}
	p.mu.Unlock()
	return make([]byte, 0, n)
}

// Put recycles a buffer; the caller must not use b afterwards.
// Zero-capacity buffers and buffers beyond the freelist bound are
// dropped.
func (p *BufPool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.bufs) < bufPoolMaxEntries {
		p.bufs = append(p.bufs, b)
	}
	p.mu.Unlock()
}
