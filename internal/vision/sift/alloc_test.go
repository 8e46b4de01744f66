package sift

import (
	"runtime"
	"testing"
)

// Detect's per-frame garbage at the analysis resolution: eight images per
// octave (six Gaussian levels, three of which end up holding DoG levels,
// plus the inner DoG levels) and the features. The horizontal-pass buffer
// and the gradient patch are pooled; 5.68 MB before the in-place DoG.
func TestDetectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	const budget = 3 << 20
	frame := clipFrames(t)[0]
	cfg := Defaults()
	cfg.MaxFeatures = 150
	cfg.Workers = 1
	d := New(cfg)
	d.Detect(frame) // fill the pools
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		d.Detect(frame)
	}
	runtime.ReadMemStats(&after)
	if perFrame := (after.TotalAlloc - before.TotalAlloc) / runs; perFrame > budget {
		t.Errorf("Detect allocates %d B per 320x180 frame, budget %d", perFrame, budget)
	}
}
