// Package transport provides the UDP datagram transport scAtteR services
// use for inter-service frame exchange. Application frames (≈180 KB, up
// to ≈920 KB for a 720p ingress frame) exceed a UDP datagram, so messages
// are fragmented into chunks and reassembled at the receiver; losing any
// fragment loses the whole message, matching UDP's all-or-nothing frame
// semantics in the paper's testbed.
//
// Fragment header (big-endian): magic u16 | msgID u64 | index u16 |
// total u16, followed by the chunk. Partial messages are garbage
// collected after a reassembly timeout, and the reassembly table is
// bounded (count and bytes) so a flood of half-frames cannot exhaust an
// edge node's memory.
//
// The data plane is allocation-free in steady state, and the receive side
// copies each byte at most once. A message in progress owns a contiguous
// pooled arena, and the read loop reads its next expected fragment
// straight into the arena slot, the header over the tail of the chunk
// before it (saved and restored around the read); any other datagram goes
// to the ordinary read buffer and is copied into its arena. A completed
// message is either borrowed by a Handler, and the arena recycled when it
// returns, or handed whole to an OwningHandler, which gives it back
// through Release. The TCP endpoint does the same with its pooled read
// buffers.
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

// Handler receives a fully reassembled message and only borrows it. from
// is the sender's address (UDP or TCP depending on the endpoint).
//
// Ownership: data is valid for the duration of the call — the endpoint
// recycles the buffer as soon as the handler returns. A handler that needs
// the bytes afterwards must copy them (decoding with
// wire.Frame.UnmarshalBinary copies; UnmarshalBinaryNoCopy does not), or
// listen with an OwningHandler instead.
type Handler func(data []byte, from net.Addr)

// OwningHandler receives a fully reassembled message and owns its buffer:
// data stays valid, and nothing else writes it, until the handler — or
// whoever it passes the buffer on to — gives it back with
// rel.Release(data). Every message must be released exactly once, with
// the slice as received, and not used afterwards. Workers use it to decode
// without a copy and keep the buffer with the queued frame.
type OwningHandler func(data []byte, from net.Addr, rel Releaser)

// Releaser takes back the receive buffers an endpoint handed to its
// OwningHandler. Conn and TCPConn implement it; Release is safe for
// concurrent use and after Close.
type Releaser interface {
	Release(buf []byte)
}

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
	pc *net.UDPConn
	// Exactly one of handler (borrowing) and owner (owning) is set.
	handler Handler
	owner   OwningHandler

	mu         sync.Mutex
	nextID     uint64
	reasm      map[reasmKey]*partial
	reasmBytes int
	freeParts  []*partial
	stats      ConnStats
	dropHook   func(from, reason string)
	closed     bool
	done       chan struct{}

	// park is the read loop's in-place receive target; only the read loop
	// touches it (the partial's pinned mark is under mu).
	park parking

	addrMu    sync.RWMutex
	addrCache map[string]netip.AddrPort

	fragPool  wire.BufPool // send-side fragment scratch
	msgPool   wire.BufPool // receive-side reassembly arenas (cap > maxChunk)
	smallPool wire.BufPool // owned copies of single-datagram messages (cap maxChunk)
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
	// pinned marks the partial the read loop is parked on: a read may be
	// writing into its arena, so the gc loop must not recycle it.
	pinned bool
}

// parking is the message in progress the read loop reads the next
// datagram into: fragment idx of partial p lands straight in its arena
// slot, the 14-byte header over the tail of chunk idx-1 (saved first and
// restored after the read). idx >= 1, since fragment 0's header would sit
// before the arena.
type parking struct {
	key   reasmKey
	p     *partial // nil when not parked
	idx   int
	saved [headerLen]byte
}

// Listen binds a UDP endpoint on addr ("host:port", port 0 for
// ephemeral) and starts delivering reassembled messages to handler,
// which borrows each one.
func Listen(addr string, handler Handler) (*Conn, error) {
	if handler == nil {
		return nil, errors.New("transport: nil handler")
	}
	return listen(addr, handler, nil)
}

// ListenOwning is Listen for a handler that keeps what it receives: each
// message's buffer — the reassembly arena itself for multi-fragment
// messages, one pooled copy for single-datagram ones — is handed over and
// comes back through Release.
func ListenOwning(addr string, owner OwningHandler) (*Conn, error) {
	if owner == nil {
		return nil, errors.New("transport: nil handler")
	}
	return listen(addr, nil, owner)
}

func listen(addr string, handler Handler, owner OwningHandler) (*Conn, error) {
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
		owner:     owner,
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
		slot := c.pinSlot()
		var n, flags int
		var from netip.AddrPort
		var err error
		if slot != nil {
			n, _, flags, from, err = c.pc.ReadMsgUDPAddrPort(slot, nil)
		} else {
			n, from, err = c.pc.ReadFromUDPAddrPort(buf)
		}
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
		if slot != nil {
			c.ingestSlot(slot[:n], flags&msgTrunc != 0, buf, from, addr)
		} else {
			c.ingest(buf[:n], from, addr)
		}
	}
}

// pinSlot returns the arena slot the next read should land in — the
// parked partial's next expected fragment, header first — and pins the
// partial against the gc loop until the read is booked. It returns nil,
// and the read goes to the ordinary buffer, when nothing is parked, the
// partial is gone or past its deadline (the gc loop gets it), or the
// platform cannot flag a truncated read.
func (c *Conn) pinSlot() []byte {
	pk := &c.park
	if pk.p == nil || msgTrunc == 0 {
		return nil
	}
	p := pk.p
	c.mu.Lock()
	if c.reasm[pk.key] != p || pk.idx >= p.total || p.have[pk.idx] || !time.Now().Before(p.deadline) {
		c.mu.Unlock()
		pk.p = nil
		return nil
	}
	p.pinned = true
	c.mu.Unlock()
	off := pk.idx * maxChunk
	copy(pk.saved[:], p.data[off-headerLen:off])
	return p.data[off-headerLen : off+maxChunk]
}

// ingestSlot routes a datagram read into the parked slot. The expected
// fragment is already in place: the previous chunk's tail its header
// overwrote is restored and the fragment booked. Anything else is moved
// to the ordinary read buffer first and goes through ingest; a datagram
// the slot truncated is malformed, since a fragment never outgrows one.
func (c *Conn) ingestSlot(pkt []byte, trunc bool, buf []byte, from netip.AddrPort, addr *net.UDPAddr) {
	pk := c.park
	p := pk.p
	magic := len(pkt) >= headerLen && binary.BigEndian.Uint16(pkt) == fragMagic
	expected := magic && !trunc && from == pk.key.from &&
		binary.BigEndian.Uint64(pkt[2:]) == pk.key.msgID &&
		int(binary.BigEndian.Uint16(pkt[10:])) == pk.idx &&
		int(binary.BigEndian.Uint16(pkt[12:])) == p.total &&
		(len(pkt) == headerLen+maxChunk || pk.idx == p.total-1)
	if !expected && !trunc {
		copy(buf, pkt) // before the restore below overwrites the header
	}
	copy(pkt[:headerLen], pk.saved[:])
	c.mu.Lock()
	p.pinned = false
	if expected {
		c.land(pk.key, p, pk.idx, len(pkt)-headerLen, addr)
		return
	}
	c.mu.Unlock()
	switch {
	case trunc && magic:
		c.countDrop(from, DropMalformed, &c.stats.FragmentsMalformed)
	case !trunc:
		c.ingest(buf[:len(pkt)], from, addr)
	}
}

// ingest routes one datagram from the ordinary read buffer, which is only
// borrowed: a single-fragment message goes to the handler (an owning one
// gets a pooled copy), a multi-fragment chunk is copied into its
// message's contiguous arena. addr is the cached net.Addr form of from.
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
	// Contiguous reassembly relies on fixed fragment geometry: every
	// non-final fragment carries exactly maxChunk bytes (as the send path
	// produces), the final one at most that.
	if total == 0 || idx >= total || total*maxChunk > maxMessage+maxChunk ||
		len(chunk) > maxChunk || (idx < total-1 && len(chunk) != maxChunk) {
		c.countDrop(from, DropMalformed, &c.stats.FragmentsMalformed)
		return
	}
	if total == 1 {
		if c.owner != nil {
			c.owner(append(c.smallPool.Get(maxChunk), chunk...), addr, c)
		} else {
			c.handler(chunk, addr)
		}
		return
	}

	key := reasmKey{from: from, msgID: msgID}
	c.mu.Lock()
	p, ok := c.reasm[key]
	if !ok {
		arena := total * maxChunk
		if len(c.reasm) >= MaxReassemblies || c.reasmBytes+arena > MaxReassemblyBytes {
			c.mu.Unlock()
			c.countDrop(from, DropOverCap, &c.stats.ReassemblyOverCap)
			return
		}
		p = c.getPartial(total)
		c.reasm[key] = p
		c.reasmBytes += arena
	}
	if p.total != total {
		// Inconsistent geometry: the fragment disagrees with its message
		// in progress about how many fragments there are.
		c.mu.Unlock()
		c.countDrop(from, DropMalformed, &c.stats.FragmentsMalformed)
		return
	}
	if p.have[idx] {
		c.mu.Unlock()
		return // duplicate
	}
	copy(p.data[idx*maxChunk:], chunk)
	c.land(key, p, idx, len(chunk), addr)
}

// land books fragment idx of p, whose n bytes are already in the arena.
// While the message is incomplete the read loop parks on its next
// missing fragment; a complete message goes to the handler, its arena
// with it. Called with c.mu held; returns with it released.
func (c *Conn) land(key reasmKey, p *partial, idx, n int, addr *net.UDPAddr) {
	p.have[idx] = true
	p.received++
	if idx == p.total-1 {
		p.lastLen = n
	}
	if p.received < p.total {
		next := p.nextMissing(idx)
		c.mu.Unlock()
		if next > 0 {
			c.park.key, c.park.p, c.park.idx = key, p, next
		}
		return
	}
	delete(c.reasm, key)
	c.reasmBytes -= p.total * maxChunk
	c.stats.Reassembled++
	msg := p.data[:(p.total-1)*maxChunk+p.lastLen]
	p.data = nil
	if len(c.freeParts) < MaxReassemblies {
		c.freeParts = append(c.freeParts, p)
	}
	c.mu.Unlock()
	if c.park.p == p {
		c.park.p = nil
	}
	if c.owner != nil {
		c.owner(msg, addr, c)
		return
	}
	c.handler(msg, addr)
	c.msgPool.Put(msg)
}

// nextMissing returns the first fragment after idx not yet received,
// wrapping round but skipping fragment 0, which cannot be parked on; 0
// when fragment 0 is the only one missing.
func (p *partial) nextMissing(idx int) int {
	for i := idx + 1; i < p.total; i++ {
		if !p.have[i] {
			return i
		}
	}
	for i := 1; i < idx; i++ {
		if !p.have[i] {
			return i
		}
	}
	return 0
}

// Release implements Releaser: it takes back a reassembly arena or a
// single-datagram copy handed to the OwningHandler.
func (c *Conn) Release(buf []byte) {
	if cap(buf) > maxChunk {
		c.msgPool.Put(buf)
	} else {
		c.smallPool.Put(buf)
	}
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
	p.data = c.msgPool.Get(arena)[:arena] // a recycled partial never keeps its arena
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

func (c *Conn) gcLoop() {
	ticker := time.NewTicker(ReassemblyTimeout / 2)
	defer ticker.Stop()
	var expiredFrom []string
	for {
		select {
		case <-c.done:
			return
		case now := <-ticker.C:
			expiredFrom = expiredFrom[:0]
			c.mu.Lock()
			for key, p := range c.reasm {
				// A pinned partial may be receiving into its arena right now;
				// it expires once the read loop lets go of it.
				if p.pinned || !now.After(p.deadline) {
					continue
				}
				delete(c.reasm, key)
				c.reasmBytes -= p.total * maxChunk
				c.stats.ReassemblyExpired++
				expiredFrom = append(expiredFrom, key.from.String())
				c.msgPool.Put(p.data)
				p.data = nil
				if len(c.freeParts) < MaxReassemblies {
					c.freeParts = append(c.freeParts, p)
				}
			}
			hook := c.dropHook
			c.mu.Unlock()
			if hook != nil {
				for _, from := range expiredFrom {
					hook(from, DropExpired)
				}
			}
		}
	}
}
