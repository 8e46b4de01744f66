package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/netem"
)

// faultPair builds a UDP endpoint pair with the sender wrapped in a
// FaultyEndpoint using the given default policy.
func faultPair(t *testing.T, def FaultPolicy) (f *FaultyEndpoint, dstAddr string, recv chan []byte) {
	t.Helper()
	recv = make(chan []byte, 4096)
	dst, err := Listen("127.0.0.1:0", func(data []byte, from net.Addr) {
		recv <- append([]byte(nil), data...)
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := Listen("127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	f = NewFaultyEndpoint(src, def, 1)
	t.Cleanup(func() { f.Close(); dst.Close() })
	return f, dst.LocalAddr(), recv
}

func drain(recv chan []byte, settle time.Duration) int {
	n := 0
	for {
		select {
		case <-recv:
			n++
		case <-time.After(settle):
			return n
		}
	}
}

func TestFaultPassthrough(t *testing.T) {
	f, dst, recv := faultPair(t, FaultPolicy{})
	for i := 0; i < 20; i++ {
		if err := f.SendToAddr(dst, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := drain(recv, 200*time.Millisecond); got != 20 {
		t.Errorf("delivered %d/20 with empty policy", got)
	}
	st := f.Stats()
	if st.Sent != 20 || st.Dropped != 0 || st.Blackholed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFaultDrop(t *testing.T) {
	f, dst, recv := faultPair(t, FaultPolicy{Drop: 0.5})
	const n = 400
	for i := 0; i < n; i++ {
		if err := f.SendToAddr(dst, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(recv, 300*time.Millisecond)
	st := f.Stats()
	if st.Dropped == 0 {
		t.Fatal("no injected drops at 50% loss")
	}
	if got+int(st.Dropped) != n {
		t.Errorf("delivered %d + dropped %d != sent %d", got, st.Dropped, n)
	}
	// 400 Bernoulli(0.5) trials stay within [120, 280] overwhelmingly.
	if st.Dropped < 120 || st.Dropped > 280 {
		t.Errorf("dropped %d of %d at p=0.5", st.Dropped, n)
	}
}

func TestFaultPacketLossCompounds(t *testing.T) {
	// A 180 KB frame fragments into 120 MTU packets: at 1% per-packet
	// loss it survives with p ≈ 0.3 — the paper's Fig. 11 effect. A tiny
	// message survives with p ≈ 0.99.
	f, dst, recv := faultPair(t, FaultPolicy{PacketLoss: 0.01})
	big := make([]byte, 180<<10)
	const n = 100
	for i := 0; i < n; i++ {
		if err := f.SendToAddr(dst, big); err != nil {
			t.Fatal(err)
		}
	}
	bigGot := drain(recv, 500*time.Millisecond)
	if bigGot > 70 {
		t.Errorf("large frames: %d/100 survived 1%% per-packet loss; want heavy compounding", bigGot)
	}
	for i := 0; i < n; i++ {
		if err := f.SendToAddr(dst, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if smallGot := drain(recv, 300*time.Millisecond); smallGot < 80 {
		t.Errorf("small frames: only %d/100 survived 1%% per-packet loss", smallGot)
	}
}

func TestFaultPartitionToggle(t *testing.T) {
	f, dst, recv := faultPair(t, FaultPolicy{})
	f.Partition(dst)
	for i := 0; i < 10; i++ {
		if err := f.SendToAddr(dst, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := drain(recv, 150*time.Millisecond); got != 0 {
		t.Errorf("%d messages crossed a partition", got)
	}
	if st := f.Stats(); st.Blackholed != 10 {
		t.Errorf("blackholed = %d, want 10", st.Blackholed)
	}
	f.Heal(dst)
	if err := f.SendToAddr(dst, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if got := drain(recv, 300*time.Millisecond); got != 1 {
		t.Errorf("healed link delivered %d, want 1", got)
	}
}

func TestFaultPartitionAll(t *testing.T) {
	f, dst, recv := faultPair(t, FaultPolicy{})
	f.PartitionAll()
	f.SendToAddr(dst, []byte{1})
	if got := drain(recv, 150*time.Millisecond); got != 0 {
		t.Errorf("%d messages crossed PartitionAll", got)
	}
	f.HealAll()
	f.SendToAddr(dst, []byte{2})
	if got := drain(recv, 300*time.Millisecond); got != 1 {
		t.Errorf("after HealAll delivered %d, want 1", got)
	}
}

func TestFaultPerPeerPolicy(t *testing.T) {
	f, dst, recv := faultPair(t, FaultPolicy{})
	other, err := Listen("127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	// Only the other peer suffers loss; dst stays clean.
	f.SetPeerPolicy(other.LocalAddr(), FaultPolicy{Drop: 1})
	for i := 0; i < 10; i++ {
		f.SendToAddr(other.LocalAddr(), []byte{1})
		f.SendToAddr(dst, []byte{2})
	}
	if got := drain(recv, 300*time.Millisecond); got != 10 {
		t.Errorf("clean peer delivered %d/10", got)
	}
	if st := f.Stats(); st.Dropped != 10 {
		t.Errorf("dropped = %d, want 10 on the lossy peer", st.Dropped)
	}
	f.ClearPeerPolicy(other.LocalAddr())
	f.SendToAddr(other.LocalAddr(), []byte{1})
	if st := f.Stats(); st.Dropped != 10 {
		t.Errorf("dropped moved to %d after ClearPeerPolicy", st.Dropped)
	}
}

func TestFaultDuplicate(t *testing.T) {
	f, dst, recv := faultPair(t, FaultPolicy{Duplicate: 1})
	for i := 0; i < 5; i++ {
		if err := f.SendToAddr(dst, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := drain(recv, 300*time.Millisecond); got != 10 {
		t.Errorf("delivered %d, want 10 (every message duplicated)", got)
	}
	if st := f.Stats(); st.Duplicated != 5 {
		t.Errorf("duplicated = %d, want 5", st.Duplicated)
	}
}

func TestFaultDelay(t *testing.T) {
	f, dst, recv := faultPair(t, FaultPolicy{Delay: 150 * time.Millisecond})
	start := time.Now()
	if err := f.SendToAddr(dst, []byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recv:
		if since := time.Since(start); since < 100*time.Millisecond {
			t.Errorf("delayed message arrived after %v, want ≥ ~150ms", since)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delayed message never arrived")
	}
}

func TestFaultCloseCancelsDelayed(t *testing.T) {
	f, dst, _ := faultPair(t, FaultPolicy{Delay: 10 * time.Second})
	for i := 0; i < 50; i++ {
		if err := f.SendToAddr(dst, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- f.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on in-flight delayed sends")
	}
	if err := f.SendToAddr(dst, []byte{1}); err != ErrClosed {
		t.Errorf("send after close: %v, want ErrClosed", err)
	}
}

func TestFaultConcurrentSenders(t *testing.T) {
	f, dst, recv := faultPair(t, FaultPolicy{Drop: 0.2, Jitter: time.Millisecond})
	var wg sync.WaitGroup
	const senders, per = 8, 50
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := f.SendToAddr(dst, []byte{1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got := drain(recv, 500*time.Millisecond)
	st := f.Stats()
	if st.Sent != senders*per {
		t.Errorf("sent = %d, want %d", st.Sent, senders*per)
	}
	if got+int(st.Dropped) != senders*per {
		t.Errorf("delivered %d + dropped %d != %d", got, st.Dropped, senders*per)
	}
}

func TestFaultPolicyFromLink(t *testing.T) {
	p := PolicyFromLink(netem.CloudWANTransit())
	if p.PacketLoss != 0.004 {
		t.Errorf("PacketLoss = %v", p.PacketLoss)
	}
	if p.Delay != 7500*time.Microsecond {
		t.Errorf("Delay = %v, want RTT/2", p.Delay)
	}
	if err := (FaultPolicy{Drop: 1.5}).Validate(); err == nil {
		t.Error("invalid drop accepted")
	}
	if err := (FaultPolicy{Duplicate: -0.1}).Validate(); err == nil {
		t.Error("invalid duplicate accepted")
	}
	if err := (FaultPolicy{Delay: -time.Second}).Validate(); err == nil {
		t.Error("negative delay accepted")
	}
}

// TestFaultEndpointInterface pins the wrapper to the Endpoint contract.
func TestFaultEndpointInterface(t *testing.T) {
	var _ Endpoint = (*FaultyEndpoint)(nil)
}

// PolicyFromLink converts a netem link configuration into the equivalent
// injection policy: one-way delay (RTT/2), jitter, and both loss models.
// Bandwidth serialization and mobility oscillation have no real-socket
// counterpart here and are folded into jitter-free delay only.
func PolicyFromLink(cfg netem.LinkConfig) FaultPolicy {
	return FaultPolicy{
		Drop:       cfg.Loss,
		PacketLoss: cfg.PacketLoss,
		Delay:      cfg.RTT / 2,
		Jitter:     cfg.Jitter,
	}
}
