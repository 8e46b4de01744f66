package transport

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// pair creates two linked endpoints; received messages on b go to the
// returned channel.
func pair(t *testing.T) (a *Conn, b *Conn, recv chan []byte) {
	t.Helper()
	recv = make(chan []byte, 16)
	var err error
	b, err = Listen("127.0.0.1:0", func(data []byte, from net.Addr) {
		cp := append([]byte(nil), data...)
		recv <- cp
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err = Listen("127.0.0.1:0", func(data []byte, from net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, recv
}

func waitMsg(t *testing.T, recv chan []byte) []byte {
	t.Helper()
	select {
	case m := <-recv:
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return nil
	}
}

func TestSmallMessage(t *testing.T) {
	a, b, recv := pair(t)
	msg := []byte("hello scatter")
	if err := a.SendTo(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	if got := waitMsg(t, recv); !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
}

func TestLargeFragmentedMessage(t *testing.T) {
	a, b, recv := pair(t)
	// A 480 KB frame (the scAtteR++ stateless size) spans 8 fragments.
	msg := make([]byte, 480<<10)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	if err := a.SendTo(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	got := waitMsg(t, recv)
	if !bytes.Equal(got, msg) {
		t.Fatalf("fragmented message corrupted: len %d vs %d", len(got), len(msg))
	}
}

func TestManyMessagesInOrderContent(t *testing.T) {
	a, b, recv := pair(t)
	const n = 20
	sent := make(map[string]bool)
	for i := 0; i < n; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 100_000+i)
		sent[string(msg)] = true
		if err := a.SendTo(b.Addr(), msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got := waitMsg(t, recv)
		if !sent[string(got)] {
			t.Fatalf("received unexpected message of len %d", len(got))
		}
		delete(sent, string(got))
	}
}

func TestSendToAddr(t *testing.T) {
	a, b, recv := pair(t)
	if err := a.SendToAddr(b.Addr().String(), []byte("via-addr")); err != nil {
		t.Fatal(err)
	}
	if got := waitMsg(t, recv); string(got) != "via-addr" {
		t.Errorf("got %q", got)
	}
	if err := a.SendToAddr("not an address", []byte("x")); err == nil {
		t.Error("bad address accepted")
	}
}

func TestTooLarge(t *testing.T) {
	a, b, _ := pair(t)
	if err := a.SendTo(b.Addr(), make([]byte, maxMessage+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	a, b, _ := pair(t)
	a.Close()
	if err := a.SendTo(b.Addr(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestListenNilHandler(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestGarbageIgnored(t *testing.T) {
	_, b, recv := pair(t)
	raw, err := net.Dial("udp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write([]byte{1, 2, 3})                   // too short
	raw.Write(append(make([]byte, 14), 9, 9, 9)) // wrong magic
	select {
	case m := <-recv:
		t.Errorf("garbage delivered: %v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestPartialMessageGarbageCollected(t *testing.T) {
	_, b, _ := pair(t)
	raw, err := net.Dial("udp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// The final fragment of a 2-fragment message, never completed.
	// (Only the last fragment may be shorter than maxChunk, so this is
	// the one short fragment the geometry check accepts.)
	pkt := make([]byte, 0, 32)
	pkt = append(pkt, 0xF2, 0x7A)                         // magic
	pkt = append(pkt, 0, 0, 0, 0, 0, 0, 0, 42)            // msgID
	pkt = append(pkt, 0, 1)                               // idx 1 (final)
	pkt = append(pkt, 0, 2)                               // total 2
	pkt = append(pkt, []byte("partial-fragment-data")...) // chunk
	if _, err := raw.Write(pkt); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for b.PendingReassemblies() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fragment never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	deadline = time.Now().Add(2 * ReassemblyTimeout)
	for b.PendingReassemblies() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("partial message never garbage collected")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestConcurrentSenders(t *testing.T) {
	recv := make(chan []byte, 256)
	b, err := Listen("127.0.0.1:0", func(data []byte, from net.Addr) {
		recv <- append([]byte(nil), data...)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const senders = 4
	const perSender = 10
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			a, err := Listen("127.0.0.1:0", func([]byte, net.Addr) {})
			if err != nil {
				t.Error(err)
				return
			}
			defer a.Close()
			for i := 0; i < perSender; i++ {
				msg := bytes.Repeat([]byte{byte(s)}, 70_000)
				if err := a.SendTo(b.Addr(), msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	got := 0
	timeout := time.After(3 * time.Second)
	for got < senders*perSender {
		select {
		case <-recv:
			got++
		case <-timeout:
			// UDP on loopback is effectively lossless; tolerate nothing.
			t.Fatalf("received %d/%d messages", got, senders*perSender)
		}
	}
}

func BenchmarkSend180KB(b *testing.B) {
	done := make(chan struct{}, 1024)
	dst, err := Listen("127.0.0.1:0", func(data []byte, from net.Addr) {
		done <- struct{}{}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	src, err := Listen("127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	msg := make([]byte, 180<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.SendTo(dst.Addr(), msg); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

// Addr returns the bound UDP address.
func (c *Conn) Addr() *net.UDPAddr { return c.pc.LocalAddr().(*net.UDPAddr) }

// SendTo fragments data and transmits it to the destination address.
func (c *Conn) SendTo(dst *net.UDPAddr, data []byte) error {
	ap := dst.AddrPort()
	return c.sendTo(netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), data)
}

// PendingReassemblies reports the number of incomplete messages (for
// tests and monitoring).
func (c *Conn) PendingReassemblies() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reasm)
}
