package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/wire"
)

// TCPOptions tune the failure behaviour of the framed TCP endpoint. The
// zero value of any field selects its default.
type TCPOptions struct {
	// DialTimeout bounds on-demand connection establishment (default 3 s).
	DialTimeout time.Duration
	// WriteTimeout bounds each framed write: a send to a blackholed peer
	// (accepting but not draining, or silently partitioned) fails after
	// this long instead of blocking on a full socket buffer (default 5 s).
	WriteTimeout time.Duration
	// Attempts is the total number of dial+write attempts per message,
	// including the first (default 3). Between attempts the sender backs
	// off exponentially with jitter.
	Attempts int
	// Backoff is the base delay before the second attempt; it doubles per
	// attempt up to MaxBackoff, each with up to 50% added jitter
	// (default 50 ms).
	Backoff time.Duration
	// MaxBackoff caps the per-attempt backoff (default 1 s).
	MaxBackoff time.Duration
}

// withDefaults fills unset fields.
func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	return o
}

// TCPConn is a framed, connection-oriented message endpoint: the
// "improved network protocol" alternative the paper's A.1.2 suggests in
// place of raw UDP. Messages are length-prefixed (u32 big-endian) on
// persistent connections; outbound connections are dialed on demand,
// pooled per destination, and re-established under a bounded
// exponential-backoff retry budget when a write or dial fails. Every
// write carries a deadline, so a blackholed peer costs bounded latency
// per message instead of wedging senders. Unlike the UDP endpoint,
// delivery is reliable and ordered per peer — losses become latency
// instead of missing frames.
type TCPConn struct {
	ln net.Listener
	// Exactly one of handler (borrowing) and owner (owning) is set.
	handler Handler
	owner   OwningHandler
	opts    TCPOptions

	mu      sync.Mutex
	peers   map[string]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup

	readPool wire.BufPool // per-frame receive buffers, back after the handler returns or on Release
}

type tcpPeer struct {
	mu     sync.Mutex
	conn   net.Conn
	probe  liveProbe // pre-write FIN/RST detector for conn
	lenBuf [4]byte   // length-prefix scratch, reused per write
	vec    [2][]byte // scatter-gather backing for writev, reused per write
	nb     net.Buffers
}

// ListenTCP binds a framed TCP endpoint on addr with default options and
// delivers inbound messages to handler.
func ListenTCP(addr string, handler Handler) (*TCPConn, error) {
	return ListenTCPOpts(addr, handler, TCPOptions{})
}

// ListenTCPOpts is ListenTCP with explicit failure-behaviour options.
func ListenTCPOpts(addr string, handler Handler, opts TCPOptions) (*TCPConn, error) {
	if handler == nil {
		return nil, errors.New("transport: nil handler")
	}
	return listenTCP(addr, handler, nil, opts)
}

// ListenTCPOwning is ListenTCP for a handler that keeps what it receives:
// each message's pooled read buffer is handed over and comes back through
// Release.
func ListenTCPOwning(addr string, owner OwningHandler) (*TCPConn, error) {
	if owner == nil {
		return nil, errors.New("transport: nil handler")
	}
	return listenTCP(addr, nil, owner, TCPOptions{})
}

func listenTCP(addr string, handler Handler, owner OwningHandler, opts TCPOptions) (*TCPConn, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen tcp %s: %w", addr, err)
	}
	c := &TCPConn{
		ln:      ln,
		handler: handler,
		owner:   owner,
		opts:    opts.withDefaults(),
		peers:   make(map[string]*tcpPeer),
		inbound: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// LocalAddr implements Endpoint.
func (c *TCPConn) LocalAddr() string { return c.ln.Addr().String() }

// Close implements Endpoint. It also aborts senders waiting in a retry
// backoff.
func (c *TCPConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	peers := make([]*tcpPeer, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	inbound := make([]net.Conn, 0, len(c.inbound))
	for conn := range c.inbound {
		inbound = append(inbound, conn)
	}
	c.mu.Unlock()
	err := c.ln.Close()
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
	for _, conn := range inbound {
		conn.Close()
	}
	c.wg.Wait()
	return err
}

func (c *TCPConn) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.inbound[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.readLoop(conn)
	}
}

func (c *TCPConn) readLoop(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.inbound, conn)
		c.mu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, 1<<20)
	var lenBuf [4]byte
	from := conn.RemoteAddr()
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxMessage {
			return // corrupt stream; drop the connection
		}
		// Pooled per-frame buffer: a Handler borrows it until it returns,
		// an OwningHandler keeps it until Release.
		data := c.readPool.Get(int(n))[:n]
		if _, err := io.ReadFull(r, data); err != nil {
			c.readPool.Put(data)
			return
		}
		if c.owner != nil {
			c.owner(data, from, c)
			continue
		}
		c.handler(data, from)
		c.readPool.Put(data)
	}
}

// Release implements Releaser: it takes back a read buffer handed to the
// OwningHandler.
func (c *TCPConn) Release(buf []byte) { c.readPool.Put(buf) }

// SendToAddr implements Endpoint: it frames data onto a pooled connection
// to addr under the endpoint's retry budget — each attempt dials (if
// needed) and writes under a deadline; failed attempts invalidate the
// pooled connection and back off exponentially with jitter before the
// next. Returns the last attempt's error when the budget is exhausted.
func (c *TCPConn) SendToAddr(addr string, data []byte) error {
	if len(data) > maxMessage {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	peer, ok := c.peers[addr]
	if !ok {
		peer = &tcpPeer{}
		c.peers[addr] = peer
	}
	c.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < c.opts.Attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleepBackoff(attempt); err != nil {
				return err
			}
		}
		conn, err := c.peerConn(peer, addr)
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.writeFrame(peer, conn, addr, data); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// sleepBackoff waits the exponential backoff before the given attempt
// (1-based for the first retry), aborting when the endpoint closes.
func (c *TCPConn) sleepBackoff(attempt int) error {
	d := c.opts.Backoff << (attempt - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	// Up to 50% jitter decorrelates retry storms across senders.
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.done:
		return ErrClosed
	case <-t.C:
		return nil
	}
}

// peerConn returns the pooled connection to addr, dialing one if none is
// cached. The dial happens outside the peer's write lock so a peer stuck
// in connection establishment does not wedge senders already holding a
// healthy connection, and outside the endpoint lock so one slow peer
// never blocks traffic to others.
func (c *TCPConn) peerConn(p *tcpPeer, addr string) (net.Conn, error) {
	p.mu.Lock()
	if p.conn != nil {
		conn := p.conn
		p.mu.Unlock()
		return conn, nil
	}
	p.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial tcp %s: %w", addr, err)
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		conn.Close()
		return nil, ErrClosed
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		// A concurrent sender won the dial race; use its connection.
		conn.Close()
		return p.conn, nil
	}
	p.conn = conn
	p.probe.init(conn)
	return conn, nil
}

// writeFrame writes one length-prefixed message under the write deadline,
// serialized per peer so frames never interleave. A failed or expired
// write invalidates the pooled connection (the stream may hold a partial
// frame) so the next attempt re-dials.
func (c *TCPConn) writeFrame(p *tcpPeer, conn net.Conn, addr string, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != conn {
		// Another sender already invalidated this connection.
		return fmt.Errorf("transport: connection to %s reset", addr)
	}
	// A freshly restarted peer leaves a dead stream in the pool; the old
	// code caught it by splitting prefix and payload into two writes so
	// the RST could fail the second. With a single writev that signal is
	// gone, so probe the socket for a pending FIN/RST first — one
	// non-blocking syscall, no allocation (see liveProbe).
	if !p.probe.alive() {
		conn.Close()
		p.conn = nil
		return fmt.Errorf("transport: connection to %s reset by peer", addr)
	}
	binary.BigEndian.PutUint32(p.lenBuf[:], uint32(len(data)))
	conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	// One writev for prefix + payload: a single syscall, no
	// concatenation copy, and frames stay intact on the wire.
	p.vec[0], p.vec[1] = p.lenBuf[:], data
	p.nb = net.Buffers(p.vec[:])
	_, err := p.nb.WriteTo(conn)
	p.vec[0], p.vec[1] = nil, nil // drop the payload ref; callers reuse their buffer
	p.nb = nil
	if err != nil {
		conn.Close()
		p.conn = nil
		return fmt.Errorf("transport: write to %s: %w", addr, err)
	}
	conn.SetWriteDeadline(time.Time{})
	return nil
}
