// Package netem models network links with latency, jitter, loss,
// bandwidth, and mobility-induced delay oscillation — the role `tc`
// played in the paper's testbed (§A.1.1). Each link decides, per
// datagram, a one-way transit delay and whether the datagram is lost.
//
// The connectivity profiles mirror the measurement studies the paper
// emulates: LTE (40 ms RTT, 0.08% loss), 5G (10 ms RTT, 0.00001–0.01%
// loss), Wi-Fi 6 (5 ms RTT, 0.00001–0.01% loss), plus the testbed's wired
// links (client↔E1 ≤1 ms, E1↔E2 ≈3 ms, client↔cloud ≈15 ms).
package netem

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// mtuBytes is the fragment size used for per-packet loss compounding.
const mtuBytes = 1500

// LinkConfig describes one directional link.
type LinkConfig struct {
	Name string
	// RTT is the round-trip time; a datagram experiences RTT/2 one way.
	RTT time.Duration
	// Jitter adds a uniform random delay in [0, Jitter] per datagram.
	Jitter time.Duration
	// Loss is the independent per-message drop probability in [0, 1].
	Loss float64
	// PacketLoss, when positive, is a per-1500-byte-fragment loss
	// probability: a message of n fragments survives with probability
	// (1-PacketLoss)^n, so large frames (which fragment into ~120 MTU
	// packets) suffer compounding loss — the effect that cripples the
	// paper's hybrid edge-cloud deployment (Fig. 11).
	PacketLoss float64
	// BandwidthBps, when positive, adds a serialization delay of
	// size*8/BandwidthBps seconds per datagram.
	BandwidthBps float64
	// OscillationDelay/OscillationProb emulate mobility: with probability
	// OscillationProb a datagram suffers an extra OscillationDelay (the
	// paper adds 10 ms oscillation with 20% probability).
	OscillationDelay time.Duration
	OscillationProb  float64
}

// Validate reports configuration errors.
func (c LinkConfig) Validate() error {
	if c.RTT < 0 || c.Jitter < 0 || c.OscillationDelay < 0 {
		return fmt.Errorf("netem: negative duration in link %q", c.Name)
	}
	if c.Loss < 0 || c.Loss > 1 {
		return fmt.Errorf("netem: loss %v outside [0,1] in link %q", c.Loss, c.Name)
	}
	if c.PacketLoss < 0 || c.PacketLoss > 1 {
		return fmt.Errorf("netem: packet loss %v outside [0,1] in link %q", c.PacketLoss, c.Name)
	}
	if c.OscillationProb < 0 || c.OscillationProb > 1 {
		return fmt.Errorf("netem: oscillation prob %v outside [0,1] in link %q", c.OscillationProb, c.Name)
	}
	if c.BandwidthBps < 0 {
		return fmt.Errorf("netem: negative bandwidth in link %q", c.Name)
	}
	return nil
}

// Stats are cumulative link counters.
type Stats struct {
	Sent    uint64
	Dropped uint64
}

// Link is a directional emulated link. It is not safe for concurrent use;
// the simulation engine serializes access.
type Link struct {
	cfg   LinkConfig
	rng   *rand.Rand
	stats Stats
}

// NewLink builds a link drawing randomness from rng. It panics on an
// invalid configuration (programming error in experiment setup).
func NewLink(cfg LinkConfig, rng *rand.Rand) *Link {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("netem: nil rng")
	}
	return &Link{cfg: cfg, rng: rng}
}

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Stats returns cumulative counters. Test tooling: no binary reads it;
// the netem and core tests check the loss models through it.
func (l *Link) Stats() Stats { return l.stats }

// Transit decides the fate of one datagram of the given size: either it
// is dropped, or it arrives after the returned one-way delay.
func (l *Link) Transit(sizeBytes int) (delay time.Duration, dropped bool) {
	l.stats.Sent++
	if l.cfg.Loss > 0 && l.rng.Float64() < l.cfg.Loss {
		l.stats.Dropped++
		return 0, true
	}
	if l.cfg.PacketLoss > 0 && sizeBytes > 0 {
		frags := (sizeBytes + mtuBytes - 1) / mtuBytes
		survive := math.Pow(1-l.cfg.PacketLoss, float64(frags))
		if l.rng.Float64() >= survive {
			l.stats.Dropped++
			return 0, true
		}
	}
	delay = l.cfg.RTT / 2
	if l.cfg.Jitter > 0 {
		delay += time.Duration(l.rng.Int63n(int64(l.cfg.Jitter) + 1))
	}
	if l.cfg.BandwidthBps > 0 && sizeBytes > 0 {
		ser := float64(sizeBytes) * 8 / l.cfg.BandwidthBps
		delay += time.Duration(ser * float64(time.Second))
	}
	if l.cfg.OscillationProb > 0 && l.rng.Float64() < l.cfg.OscillationProb {
		delay += l.cfg.OscillationDelay
	}
	return delay, false
}

// Standard profiles from the paper's testbed and its cited measurement
// studies. Loss/latency values follow §3.2 and §A.1.1.

// Loopback models services co-located on one machine.
func Loopback() LinkConfig {
	return LinkConfig{Name: "loopback", RTT: 50 * time.Microsecond}
}

// ClientEdge models the NUC clients wired directly to E1 (≤1 ms RTT).
func ClientEdge() LinkConfig {
	return LinkConfig{Name: "client-e1", RTT: time.Millisecond, Jitter: 100 * time.Microsecond}
}

// EdgeLAN models the E1↔E2 LAN path (2–4 hops, ≈3 ms RTT).
func EdgeLAN() LinkConfig {
	return LinkConfig{Name: "e1-e2", RTT: 3 * time.Millisecond, Jitter: 300 * time.Microsecond}
}

// CloudWAN models the client/edge to AWS path (≈15 ms RTT) including the
// public-Internet loss that degrades the hybrid deployment (Fig. 11).
func CloudWAN() LinkConfig {
	return LinkConfig{
		Name:   "wan-cloud",
		RTT:    15 * time.Millisecond,
		Jitter: 2 * time.Millisecond,
		Loss:   0.002,
	}
}

// CloudWANTransit models the edge-to-cloud transit path carrying the
// pipeline's sustained full-frame UDP stream in the hybrid deployment:
// the same ≈15 ms RTT as the access path, but with per-packet loss (large
// frames fragment into ~120 MTU packets, compounding badly) and a
// bandwidth cap that adds serialization delay — the paper identifies
// exactly these frame drops over the public Internet as the hybrid
// deployment's primary degradation.
func CloudWANTransit() LinkConfig {
	return LinkConfig{
		Name:         "wan-transit",
		RTT:          15 * time.Millisecond,
		Jitter:       3 * time.Millisecond,
		PacketLoss:   0.004,
		BandwidthBps: 60e6,
	}
}

// LTE emulates the LTE access profile: 40 ms RTT, 0.08% loss.
func LTE() LinkConfig {
	return LinkConfig{Name: "lte", RTT: 40 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.0008}
}

// FiveG emulates the 5G access profile: 10 ms RTT, up to 0.01% loss.
func FiveG() LinkConfig {
	return LinkConfig{Name: "5g", RTT: 10 * time.Millisecond, Jitter: 500 * time.Microsecond, Loss: 0.0001}
}

// WiFi6 emulates the Wi-Fi 6 access profile: 5 ms RTT, up to 0.01% loss.
func WiFi6() LinkConfig {
	return LinkConfig{Name: "wifi6", RTT: 5 * time.Millisecond, Jitter: 500 * time.Microsecond, Loss: 0.0001}
}

// WithMobility returns cfg with the paper's mobility emulation applied:
// 10 ms delay oscillation with 20% probability.
func WithMobility(cfg LinkConfig) LinkConfig {
	cfg.OscillationDelay = 10 * time.Millisecond
	cfg.OscillationProb = 0.2
	return cfg
}
