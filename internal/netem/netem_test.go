package netem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestValidate(t *testing.T) {
	bad := []LinkConfig{
		{RTT: -1},
		{Jitter: -1},
		{OscillationDelay: -1},
		{Loss: -0.1},
		{Loss: 1.1},
		{OscillationProb: 2},
		{BandwidthBps: -5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
	if err := LTE().Validate(); err != nil {
		t.Errorf("LTE profile invalid: %v", err)
	}
}

func TestNewLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLink with invalid config did not panic")
		}
	}()
	NewLink(LinkConfig{Loss: 3}, rand.New(rand.NewSource(1)))
}

func TestNewLinkNilRNGPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLink(nil rng) did not panic")
		}
	}()
	NewLink(Loopback(), nil)
}

func TestTransitBaseDelay(t *testing.T) {
	l := NewLink(LinkConfig{RTT: 10 * time.Millisecond}, rand.New(rand.NewSource(1)))
	d, dropped := l.Transit(1000)
	if dropped {
		t.Fatal("lossless link dropped")
	}
	if d != 5*time.Millisecond {
		t.Errorf("one-way delay = %v, want RTT/2 = 5ms", d)
	}
}

func TestTransitJitterBounds(t *testing.T) {
	l := NewLink(LinkConfig{RTT: 10 * time.Millisecond, Jitter: 2 * time.Millisecond},
		rand.New(rand.NewSource(2)))
	for i := 0; i < 1000; i++ {
		d, dropped := l.Transit(100)
		if dropped {
			t.Fatal("lossless link dropped")
		}
		if d < 5*time.Millisecond || d > 7*time.Millisecond {
			t.Fatalf("delay %v outside [5ms, 7ms]", d)
		}
	}
}

func TestTransitLossRate(t *testing.T) {
	l := NewLink(LinkConfig{Loss: 0.3}, rand.New(rand.NewSource(3)))
	const n = 20000
	for i := 0; i < n; i++ {
		l.Transit(100)
	}
	got := l.Stats().DropRate()
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("measured drop rate %v, want ~0.3", got)
	}
	if l.Stats().Sent != n {
		t.Errorf("Sent = %d, want %d", l.Stats().Sent, n)
	}
}

func TestTransitBandwidth(t *testing.T) {
	// 8 Mbit/s: a 100 KB datagram serializes in 100e3*8/8e6 = 100 ms.
	l := NewLink(LinkConfig{BandwidthBps: 8e6}, rand.New(rand.NewSource(4)))
	d, _ := l.Transit(100_000)
	if math.Abs(d.Seconds()-0.1) > 1e-9 {
		t.Errorf("serialization delay = %v, want 100ms", d)
	}
	d, _ = l.Transit(0)
	if d != 0 {
		t.Errorf("zero-byte serialization delay = %v", d)
	}
}

func TestOscillation(t *testing.T) {
	cfg := WithMobility(LinkConfig{RTT: 2 * time.Millisecond})
	l := NewLink(cfg, rand.New(rand.NewSource(5)))
	extra := 0
	const n = 10000
	for i := 0; i < n; i++ {
		d, _ := l.Transit(100)
		if d >= 11*time.Millisecond {
			extra++
		}
	}
	frac := float64(extra) / n
	if math.Abs(frac-0.2) > 0.02 {
		t.Errorf("oscillation fraction = %v, want ~0.2", frac)
	}
}

func TestDropRateZeroSent(t *testing.T) {
	if (Stats{}).DropRate() != 0 {
		t.Error("DropRate of empty stats != 0")
	}
}

func TestProfiles(t *testing.T) {
	cases := []struct {
		cfg  LinkConfig
		rtt  time.Duration
		loss float64
	}{
		{LTE(), 40 * time.Millisecond, 0.0008},
		{FiveG(), 10 * time.Millisecond, 0.0001},
		{WiFi6(), 5 * time.Millisecond, 0.0001},
		{ClientEdge(), time.Millisecond, 0},
		{EdgeLAN(), 3 * time.Millisecond, 0},
	}
	for _, c := range cases {
		if c.cfg.RTT != c.rtt {
			t.Errorf("%s RTT = %v, want %v", c.cfg.Name, c.cfg.RTT, c.rtt)
		}
		if c.cfg.Loss != c.loss {
			t.Errorf("%s loss = %v, want %v", c.cfg.Name, c.cfg.Loss, c.loss)
		}
	}
	if CloudWAN().RTT != 15*time.Millisecond {
		t.Errorf("CloudWAN RTT = %v", CloudWAN().RTT)
	}
	m := WithMobility(FiveG())
	if m.OscillationDelay != 10*time.Millisecond || m.OscillationProb != 0.2 {
		t.Errorf("WithMobility = %+v", m)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []time.Duration {
		l := NewLink(WithMobility(LTE()), rand.New(rand.NewSource(7)))
		var out []time.Duration
		for i := 0; i < 50; i++ {
			d, dropped := l.Transit(1000)
			if dropped {
				d = -1
			}
			out = append(out, d)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different transit outcomes")
		}
	}
}

// Property: delay is always >= RTT/2 for delivered datagrams and loss
// never exceeds statistics bounds grossly.
func TestTransitDelayFloorProperty(t *testing.T) {
	f := func(seed int64, rttMs uint8) bool {
		rtt := time.Duration(rttMs%100) * time.Millisecond
		l := NewLink(LinkConfig{RTT: rtt, Jitter: time.Millisecond, Loss: 0.1},
			rand.New(rand.NewSource(seed)))
		for i := 0; i < 100; i++ {
			d, dropped := l.Transit(500)
			if dropped {
				continue
			}
			if d < rtt/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// DropRate returns Dropped/Sent, or 0 when nothing was sent.
func (s Stats) DropRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.Sent)
}
