package transport

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"
)

// testMessage returns n position-dependent bytes, distinct per seed, so a
// chunk landing at the wrong offset or a header left in the arena shows
// up as a mismatch.
func testMessage(seed byte, n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*131) ^ byte(i>>13) ^ seed
	}
	return msg
}

// fragmentsOf splits msg into the raw datagrams sendTo writes for it
// under msgID.
func fragmentsOf(msgID uint64, msg []byte) [][]byte {
	total := (len(msg) + maxChunk - 1) / maxChunk
	out := make([][]byte, total)
	for idx := range out {
		hi := min((idx+1)*maxChunk, len(msg))
		out[idx] = frag(msgID, idx, total, msg[idx*maxChunk:hi])
	}
	return out
}

// ownedConn listens with an OwningHandler that copies every message onto
// the returned channel and releases its buffer.
func ownedConn(t *testing.T) (*Conn, *hookRecorder, chan []byte) {
	t.Helper()
	recv := make(chan []byte, 16)
	c, err := ListenOwning("127.0.0.1:0", func(data []byte, from net.Addr, rel Releaser) {
		recv <- append([]byte(nil), data...)
		rel.Release(data)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rec := &hookRecorder{}
	c.SetDropHook(rec.hook)
	return c, rec, recv
}

// receivers runs a test against a borrowing and an owning endpoint.
func receivers(t *testing.T, test func(t *testing.T, c *Conn, rec *hookRecorder, recv chan []byte)) {
	t.Run("borrowing", func(t *testing.T) {
		c, rec, recv := statsConn(t)
		test(t, c, rec, recv)
	})
	t.Run("owning", func(t *testing.T) {
		c, rec, recv := ownedConn(t)
		test(t, c, rec, recv)
	})
}

func send(t *testing.T, raw net.Conn, pkts ...[]byte) {
	t.Helper()
	for _, pkt := range pkts {
		if _, err := raw.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
}

func expectMessage(t *testing.T, recv chan []byte, want []byte) {
	t.Helper()
	if got := waitMsg(t, recv); !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes that differ from the %d sent", len(got), len(want))
	}
}

func expectNothing(t *testing.T, recv chan []byte) {
	t.Helper()
	select {
	case m := <-recv:
		t.Fatalf("unexpected delivery of %d bytes", len(m))
	case <-time.After(50 * time.Millisecond):
	}
}

func TestInPlaceOutOfOrderAndDuplicates(t *testing.T) {
	receivers(t, func(t *testing.T, c *Conn, _ *hookRecorder, recv chan []byte) {
		raw := rawSender(t, c)
		msg := testMessage(1, 3*maxChunk+1234)
		f := fragmentsOf(7, msg)
		send(t, raw, f[0], f[2], f[2], f[1], f[0], f[3])
		expectMessage(t, recv, msg)
		// In order, every fragment after the first lands in its slot.
		send(t, raw, fragmentsOf(8, msg)...)
		expectMessage(t, recv, msg)
		expectNothing(t, recv)
		if s := c.Stats(); s.Reassembled != 2 || s.FragmentsMalformed != 0 {
			t.Errorf("stats %+v, want 2 reassembled and nothing malformed", s)
		}
	})
}

func TestInPlaceInterleavedPeers(t *testing.T) {
	receivers(t, func(t *testing.T, c *Conn, _ *hookRecorder, recv chan []byte) {
		a, b := rawSender(t, c), rawSender(t, c)
		msgA := testMessage(2, 2*maxChunk+10)
		msgB := testMessage(3, 3*maxChunk)
		// The same message ID from two peers: reassembly keys on the
		// sender too, so a fragment parked for one peer's message must not
		// land in the other's.
		fa, fb := fragmentsOf(1, msgA), fragmentsOf(1, msgB)
		send(t, a, fa[0], fa[1])
		send(t, b, fb[0], fb[1])
		send(t, a, fa[2])
		expectMessage(t, recv, msgA)
		send(t, b, fb[2])
		expectMessage(t, recv, msgB)
	})
}

func TestInPlaceOversizeOnExpectedSlot(t *testing.T) {
	receivers(t, func(t *testing.T, c *Conn, rec *hookRecorder, recv chan []byte) {
		raw := rawSender(t, c)
		msg := testMessage(4, 2*maxChunk+500)
		f := fragmentsOf(5, msg)
		send(t, raw, f[0])
		waitFor(t, "registration", func() bool { return c.PendingReassemblies() == 1 })
		// Fragment 1's header with a chunk longer than any fragment: it
		// overflows the slot it lands in and must count as malformed.
		send(t, raw, frag(5, 1, 3, testMessage(9, maxChunk+100)))
		waitFor(t, "malformed count", func() bool { return c.Stats().FragmentsMalformed == 1 })
		// An oversize datagram without the fragment magic is ignored.
		send(t, raw, bytes.Repeat([]byte{0xAB}, headerLen+maxChunk+100))
		send(t, raw, f[1], f[2])
		expectMessage(t, recv, msg)
		if s := c.Stats(); s.FragmentsMalformed != 1 || rec.count(DropMalformed) != 1 {
			t.Errorf("malformed %d, hook %d; want 1 each", s.FragmentsMalformed, rec.count(DropMalformed))
		}
	})
}

// TestInPlaceExpiresWhileParked checks the pin: the read loop parks on a
// message whose sender went quiet, so the gc loop must leave that partial
// alone past its deadline, and expire it once a datagram has moved the
// read loop off it.
func TestInPlaceExpiresWhileParked(t *testing.T) {
	c, rec, recv := ownedConn(t)
	raw := rawSender(t, c)
	stale := testMessage(5, 3*maxChunk)
	send(t, raw, fragmentsOf(11, stale)[0])
	waitFor(t, "registration", func() bool { return c.PendingReassemblies() == 1 })
	// Past the deadline and at least one gc tick beyond it.
	time.Sleep(ReassemblyTimeout + ReassemblyTimeout*3/4)
	if c.PendingReassemblies() != 1 || c.Stats().ReassemblyExpired != 0 {
		t.Fatalf("parked partial expired under the read: pending %d, stats %+v",
			c.PendingReassemblies(), c.Stats())
	}
	small := testMessage(6, 900)
	send(t, raw, fragmentsOf(12, small)...)
	expectMessage(t, recv, small)
	waitForDur(t, 2*ReassemblyTimeout, "expiry", func() bool { return c.Stats().ReassemblyExpired == 1 })
	waitFor(t, "expired hook", func() bool { return rec.count(DropExpired) == 1 })
	if c.PendingReassemblies() != 0 {
		t.Error("expired partial still pending")
	}
	fresh := testMessage(7, 2*maxChunk+1)
	send(t, raw, fragmentsOf(13, fresh)...)
	expectMessage(t, recv, fresh)
}

// TestInPlaceCloseMidMessage closes the endpoint while its read loop is
// parked in a message: the read ends, the half message is never
// delivered, and a buffer the handler still holds can be released after
// Close.
func TestInPlaceCloseMidMessage(t *testing.T) {
	held := make(chan []byte, 4)
	var rel Releaser
	c, err := ListenOwning("127.0.0.1:0", func(data []byte, from net.Addr, r Releaser) {
		rel = r
		held <- data
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw := rawSender(t, c)
	msg := testMessage(8, 2*maxChunk+77)
	send(t, raw, fragmentsOf(21, msg)...)
	got := waitMsg(t, held)
	if !bytes.Equal(got, msg) {
		t.Fatal("delivered message differs from the one sent")
	}
	send(t, raw, fragmentsOf(22, testMessage(9, 3*maxChunk))[:2]...)
	waitFor(t, "half message", func() bool { return c.PendingReassemblies() == 1 })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-held:
		t.Fatalf("half message delivered at Close: %d bytes", len(m))
	case <-time.After(50 * time.Millisecond):
	}
	if !bytes.Equal(got, msg) {
		t.Error("a held message changed after Close")
	}
	rel.Release(got)
}

// feed pushes one datagram through the receive path the way the read
// loop does, without a socket: into the parked slot when there is one
// (truncated to it, as recvmsg truncates), else into the ordinary buffer.
func feed(c *Conn, buf, pkt []byte, from netip.AddrPort) {
	addr := net.UDPAddrFromAddrPort(from)
	if slot := c.pinSlot(); slot != nil {
		n := copy(slot, pkt)
		c.ingestSlot(slot[:n], len(pkt) > len(slot), buf, from, addr)
		return
	}
	n := copy(buf, pkt)
	c.ingest(buf[:n], from, addr)
}

// Fragment-schedule operations for FuzzReassembly: an op byte names a
// message ((op&3) % messages), a fragment ((op>>2&7) % fragments) and a
// kind (op >> 5).
const (
	opValid    = 0 // kinds 0-4: the fragment as sent
	opOversize = 5 // the fragment's header, a chunk longer than maxChunk
	opTotal    = 6 // the fragment's index under a different total
	opGarbage  = 7 // a datagram without the fragment magic
)

func fuzzOp(msg, fragment, kind int) byte { return byte(kind<<5 | fragment<<2 | msg) }

// FuzzReassembly decodes a fragment schedule from the fuzz input — up to
// three messages from two peers (two sharing a message ID), each one to
// four fragments with a final chunk of any length, sent in any order with
// duplicates, oversize datagrams, inconsistent totals and garbage — and
// feeds it through the receive path, in place and copied. Input byte 0
// picks the message count and (top bit) an owning or borrowing handler;
// then two bytes per message give its fragment count and final length.
// Every delivered message must equal one that was sent; every message
// whose fragments all arrived, and that no inconsistent total touched,
// must be delivered; none may be delivered more often than its rarest
// fragment arrived. Owned buffers are held until the end, so an arena
// reused while still owned shows up as a mismatch.
func FuzzReassembly(f *testing.F) {
	op := fuzzOp
	f.Add([]byte{0x80, 2, 0, op(0, 0, 0), op(0, 1, 0), op(0, 2, 0)})
	f.Add([]byte{0x00, 3, 10, op(0, 0, 0), op(0, 2, 0), op(0, 2, 0), op(0, 1, 0), op(0, 0, 0), op(0, 3, 0)})
	f.Add([]byte{0x81, 2, 0, 2, 50, op(0, 0, 0), op(0, 1, 0), op(1, 0, 0), op(1, 1, 0), op(0, 2, 0), op(1, 2, 0)})
	f.Add([]byte{0x80, 2, 0, op(0, 0, 0), op(0, 1, opOversize), op(0, 1, 0), op(0, 2, 0)})
	f.Add([]byte{0x80, 2, 0, op(0, 0, 0), op(0, 1, opTotal), op(0, 1, 0), op(0, 2, 0), op(0, 2, opGarbage)})
	f.Add([]byte{0x81, 0, 5, 0, 9, op(0, 0, 0), op(1, 0, opGarbage), op(1, 0, 0)})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		m := 1 + int(in[0]&0x7f)%3
		owning := in[0]&0x80 != 0
		in = in[1:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		peers := []netip.AddrPort{
			netip.MustParseAddrPort("10.0.0.1:4001"),
			netip.MustParseAddrPort("10.0.0.2:4002"),
		}
		type message struct {
			from  netip.AddrPort
			data  []byte
			frags [][]byte
		}
		msgs := make([]message, m)
		for i := range msgs {
			nfrags := 1 + next()%4
			last := maxChunk - next()*235
			data := testMessage(byte(i), (nfrags-1)*maxChunk+last)
			msgs[i] = message{from: peers[i%2], data: data, frags: fragmentsOf(uint64(i/2), data)}
		}
		if len(in) > 48 {
			in = in[:48]
		}

		type delivery struct {
			from netip.AddrPort
			data []byte
		}
		var got []delivery
		c := &Conn{reasm: make(map[reasmKey]*partial), done: make(chan struct{})}
		if owning {
			c.owner = func(data []byte, from net.Addr, _ Releaser) {
				got = append(got, delivery{from.(*net.UDPAddr).AddrPort(), data})
			}
		} else {
			c.handler = func(data []byte, from net.Addr) {
				got = append(got, delivery{from.(*net.UDPAddr).AddrPort(), append([]byte(nil), data...)})
			}
		}
		buf := make([]byte, headerLen+maxChunk+1024)
		arrived := make([][]int, m)
		poisoned := make([]bool, m)
		for i := range arrived {
			arrived[i] = make([]int, len(msgs[i].frags))
		}
		for _, b := range in {
			i := int(b&3) % m
			msg := msgs[i]
			idx := int(b>>2&7) % len(msg.frags)
			total := len(msg.frags)
			var pkt []byte
			switch b >> 5 {
			case opOversize:
				pkt = frag(uint64(i/2), idx, total, testMessage(b, maxChunk+17))
			case opTotal:
				// Non-final under the larger total, so a full chunk: valid
				// geometry on its own, inconsistent with the real message.
				pkt = frag(uint64(i/2), idx, total+1, testMessage(b, maxChunk))
				poisoned[i] = true
			case opGarbage:
				pkt = bytes.Repeat([]byte{b}, 1+int(b)*97)
			default:
				pkt = msg.frags[idx]
				arrived[i][idx]++
			}
			feed(c, buf, pkt, msg.from)
		}

		delivered := make([]int, m)
		for _, d := range got {
			match := -1
			for i, msg := range msgs {
				if msg.from == d.from && bytes.Equal(msg.data, d.data) {
					match = i
				}
			}
			if match < 0 {
				t.Fatalf("delivered %d bytes from %v that match no message sent", len(d.data), d.from)
			}
			delivered[match]++
		}
		for i := range msgs {
			rarest := arrived[i][0]
			for _, n := range arrived[i] {
				rarest = min(rarest, n)
			}
			if delivered[i] > rarest {
				t.Errorf("message %d delivered %d times, its rarest fragment arrived %d", i, delivered[i], rarest)
			}
			if rarest > 0 && !poisoned[i] && delivered[i] == 0 {
				t.Errorf("message %d: every fragment arrived, nothing delivered", i)
			}
		}
		if owning {
			for _, d := range got {
				c.Release(d.data)
			}
		}
	})
}
