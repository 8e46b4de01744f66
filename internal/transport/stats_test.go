package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// frag builds one raw fragment packet.
func frag(msgID uint64, idx, total int, chunk []byte) []byte {
	pkt := make([]byte, 0, headerLen+len(chunk))
	pkt = binary.BigEndian.AppendUint16(pkt, fragMagic)
	pkt = binary.BigEndian.AppendUint64(pkt, msgID)
	pkt = binary.BigEndian.AppendUint16(pkt, uint16(idx))
	pkt = binary.BigEndian.AppendUint16(pkt, uint16(total))
	return append(pkt, chunk...)
}

// hookRecorder collects drop-hook invocations.
type hookRecorder struct {
	mu      sync.Mutex
	reasons []string
}

func (h *hookRecorder) hook(from, reason string) {
	h.mu.Lock()
	h.reasons = append(h.reasons, reason)
	h.mu.Unlock()
}

func (h *hookRecorder) count(reason string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, r := range h.reasons {
		if r == reason {
			n++
		}
	}
	return n
}

func statsConn(t *testing.T) (*Conn, *hookRecorder, chan []byte) {
	t.Helper()
	recv := make(chan []byte, 16)
	c, err := Listen("127.0.0.1:0", func(data []byte, from net.Addr) {
		recv <- append([]byte(nil), data...)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rec := &hookRecorder{}
	c.SetDropHook(rec.hook)
	return c, rec, recv
}

func rawSender(t *testing.T, c *Conn) net.Conn {
	t.Helper()
	raw, err := net.Dial("udp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return raw
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitForDur(t, 2*time.Second, what, cond)
}

func waitForDur(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStatsReassembled(t *testing.T) {
	c, _, recv := statsConn(t)
	a, err := Listen("127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	msg := bytes.Repeat([]byte{7}, maxChunk+100) // 2 fragments
	if err := a.SendTo(c.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	got := <-recv
	if !bytes.Equal(got, msg) {
		t.Fatalf("message corrupted: got %d bytes", len(got))
	}
	if s := c.Stats(); s.Reassembled != 1 {
		t.Errorf("Reassembled = %d, want 1", s.Reassembled)
	}
}

func TestStatsMalformedFragment(t *testing.T) {
	c, rec, _ := statsConn(t)
	raw := rawSender(t, c)
	// A non-final fragment must be exactly maxChunk bytes; this one is 5.
	if _, err := raw.Write(frag(1, 0, 3, []byte("short"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "malformed counter", func() bool { return c.Stats().FragmentsMalformed == 1 })
	if rec.count(DropMalformed) != 1 {
		t.Errorf("malformed hook fired %d times, want 1", rec.count(DropMalformed))
	}
	// idx >= total is malformed geometry too.
	if _, err := raw.Write(frag(2, 5, 2, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second malformed", func() bool { return c.Stats().FragmentsMalformed == 2 })
}

func TestStatsExpiredFiresHook(t *testing.T) {
	c, rec, _ := statsConn(t)
	raw := rawSender(t, c)
	// Final fragment of a 2-fragment message that never completes.
	if _, err := raw.Write(frag(9, 1, 2, []byte("tail"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "registration", func() bool { return c.PendingReassemblies() == 1 })
	// Expiry needs ReassemblyTimeout plus up to one gc tick.
	waitForDur(t, 2*ReassemblyTimeout, "expiry", func() bool { return c.Stats().ReassemblyExpired == 1 })
	waitFor(t, "expired hook", func() bool { return rec.count(DropExpired) == 1 })
	if c.PendingReassemblies() != 0 {
		t.Error("expired partial still pending")
	}
}

func TestReassemblyTableBounded(t *testing.T) {
	c, rec, _ := statsConn(t)
	raw := rawSender(t, c)
	// Open MaxReassemblies partials (cheap: each is the short final
	// fragment of a 2-fragment message), then one more must be refused.
	for i := 0; i < MaxReassemblies; i++ {
		if _, err := raw.Write(frag(uint64(100+i), 1, 2, []byte("t"))); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 { // pace the burst so the socket buffer keeps up
			waitFor(t, "registration progress", func() bool { return c.PendingReassemblies() >= i })
		}
	}
	waitFor(t, "table full", func() bool { return c.PendingReassemblies() == MaxReassemblies })
	for rec.count(DropOverCap) == 0 {
		if _, err := raw.Write(frag(99999, 1, 2, []byte("t"))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.PendingReassemblies(); got != MaxReassemblies {
		t.Errorf("pending = %d, want cap %d", got, MaxReassemblies)
	}
	if c.Stats().ReassemblyOverCap == 0 {
		t.Error("ReassemblyOverCap not counted")
	}
}

// TestStatsInconsistentTotalIsMalformed: a fragment whose total disagrees
// with its message in progress is inconsistent geometry — counted and
// reported like any malformed fragment — while a duplicate stays silent.
func TestStatsInconsistentTotalIsMalformed(t *testing.T) {
	c, rec, recv := statsConn(t)
	raw := rawSender(t, c)
	chunk := bytes.Repeat([]byte{3}, maxChunk)
	send(t, raw, frag(3, 0, 3, chunk), frag(3, 1, 4, chunk))
	waitFor(t, "malformed counter", func() bool { return c.Stats().FragmentsMalformed == 1 })
	if rec.count(DropMalformed) != 1 {
		t.Errorf("malformed hook fired %d times, want 1", rec.count(DropMalformed))
	}
	// A duplicate, then the rest of the message: it completes, and the
	// duplicate counted nothing.
	send(t, raw, frag(3, 0, 3, chunk), frag(3, 1, 3, chunk), frag(3, 2, 3, []byte("end")))
	want := append(bytes.Repeat([]byte{3}, 2*maxChunk), "end"...)
	expectMessage(t, recv, want)
	if s := c.Stats(); s.FragmentsMalformed != 1 || rec.count(DropMalformed) != 1 {
		t.Errorf("malformed %d, hook %d after a duplicate; want 1 each", s.FragmentsMalformed, rec.count(DropMalformed))
	}
}
