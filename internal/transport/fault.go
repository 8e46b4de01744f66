// Fault injection over any Endpoint: the real-socket counterpart of the
// sim-level internal/netem link model. A FaultyEndpoint wraps an inner
// endpoint and applies a netem.Link-style policy — probabilistic drops
// (independent and per-fragment compounding), fixed delay plus jitter,
// duplication, and togglable partitions — per destination peer, at
// runtime. Chaos tests and examples use it to reproduce the paper's
// failure conditions (Fig. 11's compounding loss, §A.1.2's lossy WAN)
// against real UDP/TCP sockets instead of the simulator.
package transport

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// faultMTU is the fragment size used for per-packet loss compounding,
// matching netem's MTU model.
const faultMTU = 1500

// FaultPolicy describes the failures injected on messages to one peer
// (or, as the default policy, to every peer without an override). The
// zero value injects nothing.
type FaultPolicy struct {
	// Drop is the independent per-message drop probability in [0, 1].
	Drop float64
	// PacketLoss, when positive, is a per-1500-byte-fragment loss
	// probability: a message of n fragments survives with probability
	// (1-PacketLoss)^n, reproducing the compounding loss that cripples
	// the paper's hybrid deployment on real sockets.
	PacketLoss float64
	// Delay postpones delivery of every message by this much.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter] per message.
	Jitter time.Duration
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
}

// Validate reports configuration errors.
func (p FaultPolicy) Validate() error {
	if p.Drop < 0 || p.Drop > 1 {
		return fmt.Errorf("transport: fault drop %v outside [0,1]", p.Drop)
	}
	if p.PacketLoss < 0 || p.PacketLoss > 1 {
		return fmt.Errorf("transport: fault packet loss %v outside [0,1]", p.PacketLoss)
	}
	if p.Duplicate < 0 || p.Duplicate > 1 {
		return fmt.Errorf("transport: fault duplicate %v outside [0,1]", p.Duplicate)
	}
	if p.Delay < 0 || p.Jitter < 0 {
		return fmt.Errorf("transport: negative fault delay")
	}
	return nil
}

// active reports whether the policy injects anything at all.
func (p FaultPolicy) active() bool { return p != (FaultPolicy{}) }

// FaultStats are cumulative injection counters.
type FaultStats struct {
	Sent       uint64 // messages offered to the wrapper
	Dropped    uint64 // lost to Drop/PacketLoss
	Blackholed uint64 // lost to a partition
	Delayed    uint64 // delivered late
	Duplicated uint64 // delivered twice
}

// FaultyEndpoint wraps an Endpoint and injects the configured faults on
// the send path. Dropped and blackholed messages report success to the
// caller — exactly how a lossy or partitioned network looks to a UDP
// sender. It owns the inner endpoint: Close closes it. Safe for
// concurrent use; policies and partitions may be changed mid-run.
type FaultyEndpoint struct {
	inner Endpoint

	mu      sync.Mutex
	rng     *rand.Rand
	def     FaultPolicy
	perPeer map[string]FaultPolicy
	cut     map[string]bool
	cutAll  bool
	stats   FaultStats
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewFaultyEndpoint wraps inner with the default policy def (applied to
// peers without an override). The seed makes a run's fault pattern
// reproducible. Panics on an invalid policy (programming error in
// experiment setup), matching netem.NewLink.
func NewFaultyEndpoint(inner Endpoint, def FaultPolicy, seed int64) *FaultyEndpoint {
	if err := def.Validate(); err != nil {
		panic(err)
	}
	return &FaultyEndpoint{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		def:     def,
		perPeer: make(map[string]FaultPolicy),
		cut:     make(map[string]bool),
		done:    make(chan struct{}),
	}
}

// SetPeerPolicy overrides the policy for one destination address. Like
// the partition controls below, it is test tooling: no binary calls it,
// and the transport and agent chaos tests drive faults through it.
func (f *FaultyEndpoint) SetPeerPolicy(addr string, p FaultPolicy) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	f.mu.Lock()
	f.perPeer[addr] = p
	f.mu.Unlock()
}

// ClearPeerPolicy removes a peer override; the default applies again.
// Test tooling (see SetPeerPolicy).
func (f *FaultyEndpoint) ClearPeerPolicy(addr string) {
	f.mu.Lock()
	delete(f.perPeer, addr)
	f.mu.Unlock()
}

// Partition blackholes all messages to addr until Heal. Test tooling
// (see SetPeerPolicy).
func (f *FaultyEndpoint) Partition(addr string) {
	f.mu.Lock()
	f.cut[addr] = true
	f.mu.Unlock()
}

// Heal re-admits messages to addr. Test tooling (see SetPeerPolicy).
func (f *FaultyEndpoint) Heal(addr string) {
	f.mu.Lock()
	delete(f.cut, addr)
	f.mu.Unlock()
}

// PartitionAll blackholes every destination until HealAll. Test tooling
// (see SetPeerPolicy).
func (f *FaultyEndpoint) PartitionAll() {
	f.mu.Lock()
	f.cutAll = true
	f.mu.Unlock()
}

// HealAll lifts a PartitionAll (per-peer partitions remain). Test
// tooling (see SetPeerPolicy).
func (f *FaultyEndpoint) HealAll() {
	f.mu.Lock()
	f.cutAll = false
	f.mu.Unlock()
}

// Stats returns a snapshot of the injection counters.
func (f *FaultyEndpoint) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// LocalAddr implements Endpoint.
func (f *FaultyEndpoint) LocalAddr() string { return f.inner.LocalAddr() }

// Close stops the wrapper, cancels in-flight delayed messages (the
// network "loses" them), and closes the inner endpoint.
func (f *FaultyEndpoint) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.done)
	f.mu.Unlock()
	err := f.inner.Close()
	f.wg.Wait()
	return err
}

// SendToAddr implements Endpoint, applying the fault policy for addr.
func (f *FaultyEndpoint) SendToAddr(addr string, data []byte) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.stats.Sent++
	if f.cutAll || f.cut[addr] {
		f.stats.Blackholed++
		f.mu.Unlock()
		return nil
	}
	p, ok := f.perPeer[addr]
	if !ok {
		p = f.def
	}
	if !p.active() {
		f.mu.Unlock()
		return f.inner.SendToAddr(addr, data)
	}
	if p.Drop > 0 && f.rng.Float64() < p.Drop {
		f.stats.Dropped++
		f.mu.Unlock()
		return nil
	}
	if p.PacketLoss > 0 && len(data) > 0 {
		frags := (len(data) + faultMTU - 1) / faultMTU
		survive := math.Pow(1-p.PacketLoss, float64(frags))
		if f.rng.Float64() >= survive {
			f.stats.Dropped++
			f.mu.Unlock()
			return nil
		}
	}
	copies := 1
	if p.Duplicate > 0 && f.rng.Float64() < p.Duplicate {
		copies = 2
		f.stats.Duplicated++
	}
	delay := p.Delay
	if p.Jitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(p.Jitter) + 1))
	}
	if delay > 0 {
		f.stats.Delayed += uint64(copies)
		// Delayed messages are detached from the caller, like packets in
		// flight: the copy protects against buffer reuse, and errors after
		// the delay have no one to report to.
		buf := append([]byte(nil), data...)
		f.wg.Add(copies)
		for i := 0; i < copies; i++ {
			go f.sendLater(addr, buf, delay)
		}
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()
	var err error
	for i := 0; i < copies; i++ {
		if e := f.inner.SendToAddr(addr, data); e != nil {
			err = e
		}
	}
	return err
}

func (f *FaultyEndpoint) sendLater(addr string, data []byte, delay time.Duration) {
	defer f.wg.Done()
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-f.done:
	case <-t.C:
		_ = f.inner.SendToAddr(addr, data)
	}
}
