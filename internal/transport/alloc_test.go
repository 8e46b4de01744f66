package transport

import (
	"net"
	"testing"
)

// Steady-state allocation budgets for the transport send paths and the
// owned UDP receive path, enforced as tests (DESIGN.md "Buffer ownership
// & pooling"). The borrowed receive paths are covered by the worker-hop
// budget in internal/agent.
const (
	udpSendAllocBudget      = 0
	tcpSendAllocBudget      = 0
	udpOwnedRecvAllocBudget = 0
)

func TestUDPSendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	sink, err := Listen("127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	src, err := Listen("127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	addr := sink.LocalAddr()
	data := make([]byte, 180<<10)                      // 4 fragments
	if err := src.SendToAddr(addr, data); err != nil { // warm pools + addr cache
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := src.SendToAddr(addr, data); err != nil {
			t.Fatal(err)
		}
	})
	if avg > udpSendAllocBudget {
		t.Errorf("UDP SendToAddr allocates %.1f/op, budget %d", avg, udpSendAllocBudget)
	}
}

func TestTCPSendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	sink, err := ListenTCP("127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	src, err := ListenTCP("127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	addr := sink.LocalAddr()
	data := make([]byte, 180<<10)
	if err := src.SendToAddr(addr, data); err != nil { // warm the pooled conn
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := src.SendToAddr(addr, data); err != nil {
			t.Fatal(err)
		}
	})
	if avg > tcpSendAllocBudget {
		t.Errorf("TCP SendToAddr allocates %.1f/op, budget %d", avg, tcpSendAllocBudget)
	}
}

// TestUDPOwnedRecvAllocBudget: a 16-fragment message — the ledger's 720p
// ingress, 921 646 bytes — reassembled in place and handed to an owning
// handler, which releases the arena, allocates nothing end to end.
func TestUDPOwnedRecvAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	delivered := make(chan int, 1)
	sink, err := ListenOwning("127.0.0.1:0", func(data []byte, _ net.Addr, rel Releaser) {
		n := len(data)
		rel.Release(data)
		delivered <- n
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	src, err := Listen("127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	addr := sink.LocalAddr()
	data := make([]byte, 921_646)
	if (len(data)+maxChunk-1)/maxChunk != 16 {
		t.Fatal("message no longer spans 16 fragments")
	}
	recv := func() {
		if err := src.SendToAddr(addr, data); err != nil {
			t.Fatal(err)
		}
		if n := <-delivered; n != len(data) {
			t.Fatalf("delivered %d bytes, sent %d", n, len(data))
		}
	}
	recv() // warm the arena pool and the addr caches
	if avg := testing.AllocsPerRun(100, recv); avg > udpOwnedRecvAllocBudget {
		t.Errorf("owned 16-fragment receive allocates %.1f/op, budget %d", avg, udpOwnedRecvAllocBudget)
	}
}
