package metrics

import (
	"math"
	"testing"
	"time"
)

// TestPercentileInterpolation pins the linear-interpolation estimator on
// known distributions.
func TestPercentileInterpolation(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name string
		ds   []time.Duration
		p    float64
		want time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"single", []time.Duration{ms(7)}, 0.95, ms(7)},
		{"p0-is-min", []time.Duration{ms(3), ms(1), ms(2)}, 0, ms(1)},
		{"p100-is-max", []time.Duration{ms(3), ms(1), ms(2)}, 1, ms(3)},
		// Two samples: p50 is exactly halfway between them.
		{"p50-midpoint", []time.Duration{ms(10), ms(20)}, 0.5, ms(15)},
		// 1..5: p50 lands on the middle rank exactly.
		{"p50-exact-rank", []time.Duration{ms(5), ms(4), ms(3), ms(2), ms(1)}, 0.5, ms(3)},
		// 1..5: rank = .95*4 = 3.8 → 4ms + 0.8*(5ms-4ms) = 4.8ms.
		{"p95-interpolated", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5)}, 0.95, 4800 * time.Microsecond},
		// 1..100ms: p50 = 50.5ms, p95 = 95.05ms, p99 = 99.01ms.
		{"p50-uniform100", uniform100(), 0.50, 50500 * time.Microsecond},
		{"p95-uniform100", uniform100(), 0.95, 95050 * time.Microsecond},
		{"p99-uniform100", uniform100(), 0.99, 99010 * time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := percentileDuration(tc.ds, tc.p); got != tc.want {
				t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func uniform100() []time.Duration {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	return ds
}

// TestSeriesEdgeCases pins interval bucketing at the boundaries: events
// at exactly t=duration fall outside the last interval, an interval
// longer than the run yields a single bucket, and unknown services get
// zero-filled series of the right length.
func TestSeriesEdgeCases(t *testing.T) {
	c := NewCollector()
	duration := 2 * time.Second
	c.ServiceArrived("sift", 0)
	c.ServiceArrived("sift", duration-time.Nanosecond)
	c.ServiceArrived("sift", duration) // at the boundary: outside [0, duration)
	c.ServiceDroppedAt("sift", duration)

	fps := c.IngressFPSSeries("sift", duration, time.Second)
	if len(fps) != 2 {
		t.Fatalf("series length = %d, want 2", len(fps))
	}
	if fps[0] != 1 || fps[1] != 1 {
		t.Errorf("series = %v: event at t=duration must not count", fps)
	}
	ratios := c.DropRatioSeries("sift", duration, time.Second)
	if ratios[0] != 0 || ratios[1] != 0 {
		t.Errorf("drop at t=duration leaked into %v", ratios)
	}

	// Interval longer than the run: a single bucket spanning [0, interval),
	// so even the t=duration event falls inside the grid and counts.
	one := c.IngressFPSSeries("sift", duration, time.Minute)
	if len(one) != 1 {
		t.Fatalf("oversized interval buckets = %d, want 1", len(one))
	}
	if want := 3.0 / 60.0; math.Abs(one[0]-want) > 1e-12 {
		t.Errorf("oversized interval fps = %v, want %v", one[0], want)
	}

	// Unknown service: zero-filled, correct length, both series.
	if z := c.IngressFPSSeries("ghost", duration, 300*time.Millisecond); len(z) != 7 {
		t.Errorf("unknown service fps length = %d, want 7", len(z))
	}
	zr := c.DropRatioSeries("ghost", duration, 300*time.Millisecond)
	if len(zr) != 7 {
		t.Fatalf("unknown service ratio length = %d, want 7", len(zr))
	}
	for i, v := range zr {
		if v != 0 {
			t.Errorf("unknown service ratio[%d] = %v", i, v)
		}
	}
}
