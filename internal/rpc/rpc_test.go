package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoServer(t *testing.T) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer(func(method string, body []byte) ([]byte, error) {
		switch method {
		case "echo":
			return body, nil
		case "upper":
			return bytes.ToUpper(body), nil
		case "fail":
			return nil, errors.New("boom")
		case "slow":
			time.Sleep(50 * time.Millisecond)
			return body, nil
		default:
			return nil, fmt.Errorf("unknown method %q", method)
		}
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestCallEcho(t *testing.T) {
	addr, _ := echoServer(t)
	c := Dial(addr, time.Second)
	defer c.Close()
	got, err := c.Call(context.Background(), "echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("echo = %q", got)
	}
	got, err = c.Call(context.Background(), "upper", []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ABC" {
		t.Errorf("upper = %q", got)
	}
}

func TestCallError(t *testing.T) {
	addr, _ := echoServer(t)
	c := Dial(addr, time.Second)
	defer c.Close()
	_, err := c.Call(context.Background(), "fail", nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want remote boom", err)
	}
	// The connection survives an error response.
	if _, err := c.Call(context.Background(), "echo", []byte("x")); err != nil {
		t.Errorf("call after error: %v", err)
	}
}

func TestConcurrentPipelinedCalls(t *testing.T) {
	addr, _ := echoServer(t)
	c := Dial(addr, 2*time.Second)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			got, err := c.Call(context.Background(), "echo", msg)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- fmt.Errorf("mismatched response: %q vs %q", got, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCallTimeout(t *testing.T) {
	addr, _ := echoServer(t)
	c := Dial(addr, 10*time.Millisecond)
	defer c.Close()
	_, err := c.Call(context.Background(), "slow", nil)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestContextCancel(t *testing.T) {
	addr, _ := echoServer(t)
	c := Dial(addr, time.Second)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := c.Call(ctx, "slow", nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestDialFailure(t *testing.T) {
	c := Dial("127.0.0.1:1", 200*time.Millisecond) // closed port
	defer c.Close()
	if _, err := c.Call(context.Background(), "echo", nil); err == nil {
		t.Error("call to closed port succeeded")
	}
}

func TestReconnectAfterServerRestart(t *testing.T) {
	srv := NewServer(func(method string, body []byte) ([]byte, error) { return body, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr, time.Second)
	defer c.Close()
	if _, err := c.Call(context.Background(), "echo", []byte("1")); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// First call after close fails (broken conn), then a new server on
	// the same port allows a later call to succeed via reconnect.
	_, _ = c.Call(context.Background(), "echo", []byte("2"))
	srv2 := NewServer(func(method string, body []byte) ([]byte, error) { return body, nil })
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("port not immediately reusable: %v", err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Call(context.Background(), "echo", []byte("3")); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("never reconnected")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	_, srv := echoServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNewServerNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewServer(nil) did not panic")
		}
	}()
	NewServer(nil)
}

func TestLargeBody(t *testing.T) {
	addr, _ := echoServer(t)
	c := Dial(addr, 5*time.Second)
	defer c.Close()
	body := make([]byte, 1<<20) // 1 MiB, the size of a feature-rich state
	for i := range body {
		body[i] = byte(i)
	}
	got, err := c.Call(context.Background(), "echo", body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Error("large body corrupted")
	}
}

func BenchmarkCall(b *testing.B) {
	srv := NewServer(func(method string, body []byte) ([]byte, error) { return body, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := Dial(addr, 5*time.Second)
	defer c.Close()
	body := make([]byte, 1024)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(ctx, "echo", body); err != nil {
			b.Fatal(err)
		}
	}
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		c.failAll(conn, ErrClosed)
	}
	return nil
}
