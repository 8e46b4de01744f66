// Package transport provides the UDP datagram transport scAtteR services
// use for inter-service frame exchange. Application frames (≈180 KB, up
// to ≈480 KB when sift state rides along in scAtteR++) exceed a UDP
// datagram, so messages are fragmented into chunks and reassembled at the
// receiver; losing any fragment loses the whole message, matching UDP's
// all-or-nothing frame semantics in the paper's testbed.
//
// Fragment header (big-endian): magic u16 | msgID u64 | index u16 |
// total u16, followed by the chunk. Partial messages are garbage
// collected after a reassembly timeout, and the reassembly table is
// bounded (count and bytes) so a flood of half-frames cannot exhaust an
// edge node's memory.
//
// The data plane is allocation-free in steady state: fragment scratch,
// reassembly arenas, and read buffers are pooled, and received messages
// are only borrowed by the Handler (see Handler's ownership contract).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/wire"
)

const (
	fragMagic  = 0xF27A
	headerLen  = 2 + 8 + 2 + 2
	maxChunk   = 60_000 // stays under the 64 KiB UDP limit with headers
	maxMessage = 32 << 20
)

// ReassemblyTimeout is how long a partial message waits for fragments.
const ReassemblyTimeout = 2 * time.Second

// Reassembly-table bounds: at most MaxReassemblies partial messages and
// MaxReassemblyBytes of reassembly arena may be pending at once.
// Fragments beyond either bound are dropped and counted
// (ConnStats.ReassemblyOverCap) — bounded memory beats unbounded queues
// on a resource-constrained edge node.
const (
	MaxReassemblies    = 256
	MaxReassemblyBytes = 64 << 20
)

// maxAddrCacheEntries bounds the resolved-destination cache.
const maxAddrCacheEntries = 4096

// Errors.
var (
	ErrTooLarge = errors.New("transport: message too large")
	ErrClosed   = errors.New("transport: closed")
)

// Handler receives a fully reassembled message. from is the sender's
// address (UDP or TCP depending on the endpoint).
//
// Ownership: data is only borrowed for the duration of the call — the
// endpoint recycles the buffer as soon as the handler returns. A handler
// that needs the bytes afterwards must copy them (decoding with
// wire.Frame.UnmarshalBinary copies; UnmarshalBinaryNoCopy does not).
type Handler func(data []byte, from net.Addr)

// Endpoint abstracts the message transports service workers use: the
// fragmenting UDP transport (the paper's baseline) and the framed TCP
// transport (the "improved network protocol" alternative of A.1.2).
type Endpoint interface {
	// LocalAddr returns the bound address as "host:port".
	LocalAddr() string
	// SendToAddr delivers one message to the destination address. It
	// must not retain data after it returns, so callers may reuse the
	// buffer immediately.
	SendToAddr(addr string, data []byte) error
	Close() error
}

// ConnStats are cumulative counters for the UDP endpoint's receive path
// (FaultStats-style; see FaultyEndpoint for the injection counters).
type ConnStats struct {
	Reassembled        uint64 // multi-fragment messages completed
	ReassemblyExpired  uint64 // partial messages dropped at the timeout
	ReassemblyOverCap  uint64 // fragments refused by the table bounds
	FragmentsMalformed uint64 // fragments with inconsistent geometry
}

// Reassembly drop reasons passed to the drop hook.
const (
	DropExpired   = "expired"
	DropOverCap   = "overcap"
	DropMalformed = "malformed"
)

// Conn is a UDP endpoint that sends and receives fragmented messages.
type Conn struct {
	pc      *net.UDPConn
	handler Handler

	mu         sync.Mutex
	nextID     uint64
	reasm      map[reasmKey]*partial
	reasmBytes int
	freeParts  []*partial
	stats      ConnStats
	dropHook   func(from, reason string)
	closed     bool
	done       chan struct{}

	addrMu    sync.RWMutex
	addrCache map[string]netip.AddrPort

	fragPool wire.BufPool // send-side fragment scratch
	msgPool  wire.BufPool // receive-side reassembly arenas
}

type reasmKey struct {
	from  netip.AddrPort
	msgID uint64
}

// partial is one in-progress reassembly. Fragments land directly in a
// contiguous pooled arena at idx*maxChunk (every non-final fragment is
// exactly maxChunk long), so completion needs no concatenation pass.
type partial struct {
	data     []byte // arena, cap >= total*maxChunk
	have     []bool
	received int
	total    int
	lastLen  int
	deadline time.Time
}

// Listen binds a UDP endpoint on addr ("host:port", port 0 for
// ephemeral) and starts delivering reassembled messages to handler.
func Listen(addr string, handler Handler) (*Conn, error) {
	if handler == nil {
		return nil, errors.New("transport: nil handler")
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	pc, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	// Large buffers absorb multi-fragment bursts; errors are advisory.
	_ = pc.SetReadBuffer(8 << 20)
	_ = pc.SetWriteBuffer(8 << 20)
	c := &Conn{
		pc:        pc,
		handler:   handler,
		reasm:     make(map[reasmKey]*partial),
		addrCache: make(map[string]netip.AddrPort),
		done:      make(chan struct{}),
	}
	go c.readLoop()
	go c.gcLoop()
	return c, nil
}

// LocalAddr implements Endpoint.
func (c *Conn) LocalAddr() string { return c.pc.LocalAddr().String() }

// Stats returns a snapshot of the receive-path counters.
func (c *Conn) Stats() ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// SetDropHook installs a callback invoked (outside the endpoint's lock)
// whenever the receive path discards fragments — reassembly timeout,
// table bounds, or malformed geometry. Workers use it to record
// drop-outcome spans so transport-level losses and worker-level drops
// tell one story.
func (c *Conn) SetDropHook(hook func(from, reason string)) {
	c.mu.Lock()
	c.dropHook = hook
	c.mu.Unlock()
}

// Close stops the endpoint.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	return c.pc.Close()
}

// SendToAddr resolves a "host:port" destination and sends. Resolved
// destinations are cached, so steady-state sends skip the resolver.
func (c *Conn) SendToAddr(addr string, data []byte) error {
	c.addrMu.RLock()
	ap, ok := c.addrCache[addr]
	c.addrMu.RUnlock()
	if !ok {
		udpAddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("transport: resolve %s: %w", addr, err)
		}
		ap = udpAddr.AddrPort()
		// Unmap 4-in-6 so a udp4-bound socket accepts the write.
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		c.addrMu.Lock()
		if len(c.addrCache) < maxAddrCacheEntries {
			c.addrCache[addr] = ap
		}
		c.addrMu.Unlock()
	}
	return c.sendTo(ap, data)
}

// sendTo fragments data into a pooled scratch buffer and writes each
// fragment with WriteToUDPAddrPort — zero allocations in steady state.
func (c *Conn) sendTo(dst netip.AddrPort, data []byte) error {
	if len(data) > maxMessage {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	id := c.nextID
	c.nextID++
	c.mu.Unlock()

	total := (len(data) + maxChunk - 1) / maxChunk
	if total == 0 {
		total = 1
	}
	buf := c.fragPool.Get(headerLen + maxChunk)
	defer c.fragPool.Put(buf)
	for idx := 0; idx < total; idx++ {
		lo := idx * maxChunk
		hi := lo + maxChunk
		if hi > len(data) {
			hi = len(data)
		}
		buf = buf[:0]
		buf = binary.BigEndian.AppendUint16(buf, fragMagic)
		buf = binary.BigEndian.AppendUint64(buf, id)
		buf = binary.BigEndian.AppendUint16(buf, uint16(idx))
		buf = binary.BigEndian.AppendUint16(buf, uint16(total))
		buf = append(buf, data[lo:hi]...)
		if _, err := c.pc.WriteToUDPAddrPort(buf, dst); err != nil {
			return fmt.Errorf("transport: send to %s: %w", dst, err)
		}
	}
	return nil
}

func (c *Conn) readLoop() {
	buf := make([]byte, headerLen+maxChunk+1024)
	// senders caches the net.Addr handed to the handler per peer, so the
	// steady-state receive path allocates nothing. Owned by this
	// goroutine; bounded like the resolve cache.
	senders := make(map[netip.AddrPort]*net.UDPAddr)
	for {
		n, from, err := c.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		addr, ok := senders[from]
		if !ok {
			addr = net.UDPAddrFromAddrPort(from)
			if len(senders) < maxAddrCacheEntries {
				senders[from] = addr
			}
		}
		c.ingest(buf[:n], from, addr)
	}
}

// ingest routes one datagram. The packet buffer is the read loop's and
// is only borrowed: single-fragment messages hand their chunk straight
// to the handler (which must not retain it), multi-fragment chunks are
// copied into the message's contiguous arena. addr is the cached
// net.Addr form of from.
func (c *Conn) ingest(pkt []byte, from netip.AddrPort, addr *net.UDPAddr) {
	if len(pkt) < headerLen {
		return
	}
	if binary.BigEndian.Uint16(pkt) != fragMagic {
		return
	}
	msgID := binary.BigEndian.Uint64(pkt[2:])
	idx := int(binary.BigEndian.Uint16(pkt[10:]))
	total := int(binary.BigEndian.Uint16(pkt[12:]))
	chunk := pkt[headerLen:]
	if total == 0 || idx >= total || total*maxChunk > maxMessage+maxChunk {
		c.countDrop(from, DropMalformed, &c.stats.FragmentsMalformed)
		return
	}
	if total == 1 {
		c.handler(chunk, addr)
		return
	}
	// Contiguous reassembly relies on fixed fragment geometry: every
	// non-final fragment carries exactly maxChunk bytes (as the send
	// path produces), the final one at most that.
	if len(chunk) > maxChunk || (idx < total-1 && len(chunk) != maxChunk) {
		c.countDrop(from, DropMalformed, &c.stats.FragmentsMalformed)
		return
	}

	key := reasmKey{from: from, msgID: msgID}
	c.mu.Lock()
	p, ok := c.reasm[key]
	if !ok {
		arena := total * maxChunk
		if len(c.reasm) >= MaxReassemblies || c.reasmBytes+arena > MaxReassemblyBytes {
			c.stats.ReassemblyOverCap++
			hook := c.dropHook
			c.mu.Unlock()
			if hook != nil {
				hook(from.String(), DropOverCap)
			}
			return
		}
		p = c.getPartial(total)
		c.reasm[key] = p
		c.reasmBytes += arena
	}
	if p.total != total || p.have[idx] {
		c.mu.Unlock()
		return // duplicate or inconsistent fragment
	}
	copy(p.data[idx*maxChunk:], chunk)
	p.have[idx] = true
	p.received++
	if idx == total-1 {
		p.lastLen = len(chunk)
	}
	complete := p.received == p.total
	if complete {
		delete(c.reasm, key)
		c.reasmBytes -= p.total * maxChunk
		c.stats.Reassembled++
	}
	c.mu.Unlock()
	if !complete {
		return
	}
	msg := p.data[:(p.total-1)*maxChunk+p.lastLen]
	c.handler(msg, addr)
	c.putPartial(p)
}

// countDrop bumps a receive-path counter and fires the drop hook.
func (c *Conn) countDrop(from netip.AddrPort, reason string, counter *uint64) {
	c.mu.Lock()
	*counter++
	hook := c.dropHook
	c.mu.Unlock()
	if hook != nil {
		hook(from.String(), reason)
	}
}

// getPartial returns a recycled partial with an arena and marks sized
// for total fragments. Caller holds c.mu.
func (c *Conn) getPartial(total int) *partial {
	var p *partial
	if n := len(c.freeParts); n > 0 {
		p = c.freeParts[n-1]
		c.freeParts[n-1] = nil
		c.freeParts = c.freeParts[:n-1]
	} else {
		p = &partial{}
	}
	arena := total * maxChunk
	if cap(p.data) < arena {
		p.data = c.msgPool.Get(arena)
	}
	p.data = p.data[:arena]
	if cap(p.have) < total {
		p.have = make([]bool, total)
	}
	p.have = p.have[:total]
	for i := range p.have {
		p.have[i] = false
	}
	p.received, p.total, p.lastLen = 0, total, 0
	p.deadline = time.Now().Add(ReassemblyTimeout)
	return p
}

// putPartial recycles a finished reassembly: the arena goes back to the
// message pool, the marks stay with the partial.
func (c *Conn) putPartial(p *partial) {
	c.msgPool.Put(p.data)
	p.data = nil
	c.mu.Lock()
	if len(c.freeParts) < MaxReassemblies {
		c.freeParts = append(c.freeParts, p)
	}
	c.mu.Unlock()
}

func (c *Conn) gcLoop() {
	ticker := time.NewTicker(ReassemblyTimeout / 2)
	defer ticker.Stop()
	var expired []*partial
	var expiredFrom []string
	for {
		select {
		case <-c.done:
			return
		case now := <-ticker.C:
			expired, expiredFrom = expired[:0], expiredFrom[:0]
			c.mu.Lock()
			for key, p := range c.reasm {
				if now.After(p.deadline) {
					delete(c.reasm, key)
					c.reasmBytes -= p.total * maxChunk
					c.stats.ReassemblyExpired++
					expired = append(expired, p)
					expiredFrom = append(expiredFrom, key.from.String())
				}
			}
			hook := c.dropHook
			c.mu.Unlock()
			for i, p := range expired {
				c.putPartial(p)
				if hook != nil {
					hook(expiredFrom[i], DropExpired)
				}
			}
		}
	}
}
