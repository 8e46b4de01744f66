// Package rpc implements a minimal framed request/response protocol over
// TCP — the stdlib-only substitute for the gRPC calls scAtteR++'s sidecar
// makes into its service, and for matching's state-fetch requests to sift
// in the stateful pipeline.
//
// Wire format (big-endian): each message is
//
//	u32 frame length | u64 request id | u8 kind | u8 method length |
//	method bytes | body bytes
//
// where kind distinguishes requests, responses, and error responses
// (whose body is the error string). Responses are matched to requests by
// id, so a connection supports pipelined concurrent calls.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Message kinds.
const (
	kindRequest = iota
	kindResponse
	kindError
)

// maxFrame bounds a single message (headers + body).
const maxFrame = 16 << 20

// Protocol errors.
var (
	ErrTooLarge    = errors.New("rpc: frame too large")
	ErrClosed      = errors.New("rpc: connection closed")
	ErrBadResponse = errors.New("rpc: malformed response")
)

// Handler serves one method call. Returning an error sends an error frame
// to the caller.
type Handler func(method string, body []byte) ([]byte, error)

// Server accepts connections and dispatches calls to a Handler.
type Server struct {
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates a server around the handler.
func NewServer(handler Handler) *Server {
	if handler == nil {
		panic("rpc: nil handler")
	}
	return &Server{handler: handler, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting on addr ("host:port", port 0 for ephemeral) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var writeMu sync.Mutex
	for {
		id, kind, method, body, err := readMessage(r)
		if err != nil {
			return
		}
		if kind != kindRequest {
			continue // ignore stray frames
		}
		// Handle sequentially per connection read, but allow concurrent
		// in-flight handlers (pipelining).
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			resp, err := s.handler(method, body)
			writeMu.Lock()
			defer writeMu.Unlock()
			if err != nil {
				writeMessage(conn, id, kindError, "", []byte(err.Error()))
				return
			}
			writeMessage(conn, id, kindResponse, "", resp)
		}()
	}
}

// Close stops the listener and all connections, waiting for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func writeMessage(w io.Writer, id uint64, kind byte, method string, body []byte) error {
	if len(method) > 255 {
		return ErrTooLarge
	}
	n := 8 + 1 + 1 + len(method) + len(body)
	if n > maxFrame {
		return ErrTooLarge
	}
	buf := make([]byte, 0, 4+n)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = append(buf, kind, byte(len(method)))
	buf = append(buf, method...)
	buf = append(buf, body...)
	_, err := w.Write(buf)
	return err
}

func readMessage(r *bufio.Reader) (id uint64, kind byte, method string, body []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 10 || n > maxFrame {
		err = ErrTooLarge
		return
	}
	frame := make([]byte, n)
	if _, err = io.ReadFull(r, frame); err != nil {
		return
	}
	id = binary.BigEndian.Uint64(frame)
	kind = frame[8]
	mlen := int(frame[9])
	if 10+mlen > len(frame) {
		err = ErrBadResponse
		return
	}
	method = string(frame[10 : 10+mlen])
	body = frame[10+mlen:]
	return
}

// Client is a connection pool of one TCP connection with pipelined calls.
// It reconnects lazily after failures. Safe for concurrent use.
type Client struct {
	addr    string
	timeout time.Duration

	mu      sync.Mutex
	conn    net.Conn
	nextID  uint64
	pending map[uint64]chan result
}

type result struct {
	body []byte
	err  error
}

// Dial creates a client for the server address. The connection is
// established on first call.
func Dial(addr string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &Client{addr: addr, timeout: timeout, pending: make(map[uint64]chan result)}
}

func (c *Client) ensureConnLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return fmt.Errorf("rpc: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	go c.readLoop(conn)
	return nil
}

func (c *Client) readLoop(conn net.Conn) {
	r := bufio.NewReader(conn)
	for {
		id, kind, _, body, err := readMessage(r)
		if err != nil {
			c.failAll(conn, err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !ok {
			continue
		}
		switch kind {
		case kindResponse:
			ch <- result{body: body}
		case kindError:
			ch <- result{err: fmt.Errorf("rpc: remote: %s", body)}
		default:
			ch <- result{err: ErrBadResponse}
		}
	}
}

func (c *Client) failAll(conn net.Conn, err error) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	pending := c.pending
	c.pending = make(map[uint64]chan result)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- result{err: fmt.Errorf("%w: %v", ErrClosed, err)}
	}
}

// Call performs a unary request and waits for the response, the context,
// or the client timeout.
func (c *Client) Call(ctx context.Context, method string, body []byte) ([]byte, error) {
	c.mu.Lock()
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++
	ch := make(chan result, 1)
	c.pending[id] = ch
	conn := c.conn
	err := writeMessage(conn, id, kindRequest, method, body)
	if err != nil {
		delete(c.pending, id)
		c.mu.Unlock()
		c.failAll(conn, err)
		return nil, err
	}
	c.mu.Unlock()

	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.body, res.err
	case <-ctx.Done():
		c.drop(id)
		return nil, ctx.Err()
	case <-timer.C:
		c.drop(id)
		return nil, fmt.Errorf("rpc: call %s timed out after %v", method, c.timeout)
	}
}

func (c *Client) drop(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}
